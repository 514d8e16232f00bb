// Package post holds one poster of each kind rule 6 judges; TestSurfaceRules
// says which must be flagged.
package post

import "surfacefix/internal/sim"

type node struct{ n int }

func (n *node) bump(_, _ any) { n.n++ }

func bump(a, _ any) { a.(*node).n++ }

func run(a, _ any) { a.(func())() }

// Named posts a package-level func.
func Named(e *sim.Engine) { e.AtCall(1, bump, &node{}, nil) }

// Forward passes on a callback that is already an EventFunc.
func Forward(e *sim.Engine, fn sim.EventFunc) { e.AtCall(1, fn, &node{}, nil) }

// Literal converts a func literal.
func Literal(e *sim.Engine) {
	n := &node{}
	e.AtCall(1, func(_, _ any) { n.n++ }, nil, nil)
}

// MethodValue converts a method value.
func MethodValue(e *sim.Engine) { e.AtCall(1, (&node{}).bump, nil, nil) }

// Payload passes a func where an interface is expected.
func Payload(e *sim.Engine) { e.AtCall(1, run, func() {}, nil) }

// Bare calls Engine.At.
func Bare(e *sim.Engine) { e.At(1, func() {}) }
