package main

import (
	"errors"
	"flag"
	"fmt"

	"surfacefix/internal/a"
	"surfacefix/internal/post"
	"surfacefix/internal/sim"
)

func main() {
	var lvl a.Level
	flag.Var(&lvl, "level", "verbosity")
	flag.Parse()
	cfg := a.DefaultConfig(int(lvl))
	cfg.Retries = 5
	e := new(sim.Engine)
	post.Named(e)
	post.Forward(e, func(_, _ any) {})
	post.Literal(e)
	post.MethodValue(e)
	post.Payload(e)
	post.Bare(e)
	fmt.Println(a.T{N: 1}, a.Start(cfg), a.Count(&a.Outer{}), a.Sum(), a.Tally(&a.Counters{}, func(*int) {}), errors.Is(a.Check(-1), a.ErrBase))
}
