package sim

// Ticker invokes a callback at a fixed virtual-time period until stopped.
// The first tick fires one period after Start.
type Ticker struct {
	eng     *Engine
	period  Time
	fn      func(now Time)
	stopped bool
}

// NewTicker creates a ticker; call Start to begin ticking.
func NewTicker(eng *Engine, period Time, fn func(now Time)) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	return &Ticker{eng: eng, period: period, fn: fn}
}

// Start schedules the first tick one period from now.
func (t *Ticker) Start() {
	t.stopped = false
	t.eng.AfterCall(t.period, tickerTick, t, nil)
}

// tickerTick is the recurring tick dispatcher: the ticker itself is the
// event payload, so a perpetual ticker schedules forever without
// allocating (no method-value closure per tick).
func tickerTick(a, _ any) { a.(*Ticker).tick() }

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn(t.eng.Now())
	if !t.stopped {
		t.eng.AfterCall(t.period, tickerTick, t, nil)
	}
}

// Stop cancels future ticks. A tick already dispatched still runs.
func (t *Ticker) Stop() { t.stopped = true }
