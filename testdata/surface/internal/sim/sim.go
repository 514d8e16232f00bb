// Package sim stands in for the event engine rule 6 guards: inside it,
// At may adapt a bare func.
package sim

// EventFunc is a posted event's callback.
type EventFunc func(a, b any)

// Engine runs each posted event at once.
type Engine struct{ Posted int }

// AtCall posts fn(a, b).
func (e *Engine) AtCall(t int, fn EventFunc, a, b any) {
	e.Posted += t
	fn(a, b)
}

// At posts a bare func through an adapter.
func (e *Engine) At(t int, fn func()) { e.AtCall(t, call0, fn, nil) }

func call0(a, _ any) { a.(func())() }
