//go:build go1.23

package proc

import "iter"

// newTC wraps prog as a coroutine thread on cpu. The body does not run until
// the CPU's first fetch pulls it; each TC.do then hands its op back through
// yield and resumes when the CPU pulls again — a direct coroutine switch,
// with no channel and no scheduler wake-up in between.
func newTC(cpu *CPU, prog func(*TC)) *TC {
	tc := &TC{cpu: cpu}
	tc.pull, tc.stop = iter.Pull(func(yield func(op) bool) {
		tc.yield = yield
		defer func() {
			if tc.stopping {
				recover() // the threadStop raised by do after stop
			}
		}()
		prog(tc)
		tc.flushCompute()
	})
	return tc
}
