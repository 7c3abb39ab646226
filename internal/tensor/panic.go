package tensor

import "fmt"

// Panicf is the designated escape hatch for shape and invariant
// violations in library packages. The panic rule of TestSourceRules
// (source_rules_test.go) forbids raw panic() calls in non-test files
// under internal/ except this one, so that every abort in library code is
// greppable, formatted, and — once the serving path lands — trivially
// convertible to an error return at a single choke point.
//
// Callers pass a message with their own package prefix, e.g.
//
//	tensor.Panicf("lstm: %d predictors for %d layers", p, l)
//
// Panicf never returns. The Go compiler does not know that, so callers
// in value-returning positions must follow it with an unreachable
// return.
//
// The panic value is the unexported violation type, so a serving-path
// recover boundary (Guard) can convert exactly these aborts to errors
// while letting genuine bugs — index out of range, nil dereference —
// crash loudly.
func Panicf(format string, args ...any) {
	panic(violation(fmt.Sprintf(format, args...)))
}

// violation is the panic payload of Panicf. It implements error so a
// recovered violation can be returned directly.
type violation string

func (v violation) Error() string { return string(v) }

// Guard is the error boundary of the serving path: deferred in an
// error-returning wrapper (recurrent.Network.ClassifyBatchE and
// RunWavefrontE, core.Engine.EvaluateSetE), it converts a Panicf abort
// into *err and re-panics on anything else.
//
//	func (n *Network) ClassifyBatchE(...) (classes []int, err error) {
//	    defer tensor.Guard(&err)
//	    return n.ClassifyBatch(...), nil
//	}
func Guard(err *error) {
	switch r := recover().(type) {
	case nil:
	case violation:
		*err = r
	default:
		panic(r)
	}
}

// Recovered runs f and returns the Panicf violation it panicked with,
// or nil when it returned. Guard sees only the panics of its own
// goroutine, so a helper goroutine of an error-returning call runs its
// work through Recovered and hands the value to the caller, which
// re-raises it with Repanic after the join: a Panicf violation in the
// helper then becomes the call's error instead of killing the process.
// Any other panic is a bug, not an error: Recovered re-raises it where
// it was recovered, before the stack unwinds, so it crashes the process
// with the faulting frame in the helper's trace.
func Recovered(f func()) (r any) {
	defer func() {
		switch v := recover().(type) {
		case nil:
		case violation:
			r = v
		default:
			panic(v)
		}
	}()
	f()
	return nil
}

// Repanic re-raises, on the calling goroutine, a value Recovered
// returned; nil is a no-op.
func Repanic(r any) {
	if r != nil {
		panic(r)
	}
}
