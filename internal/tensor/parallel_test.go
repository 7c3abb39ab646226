package tensor

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestParallelForCarriesPanics: a Panicf in a body on a worker comes
// back through the caller's Guard at GOMAXPROCS 2 as the call's error,
// only once every call in flight has returned, and no worker goroutine
// outlives the call.
func TestParallelForCarriesPanics(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	before := runtime.NumGoroutine()
	var started, finished atomic.Int64
	body := func(fail func()) func(int) {
		return func(i int) {
			started.Add(1)
			defer finished.Add(1)
			if i == 1 {
				fail()
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	run := func(fail func()) (err error) {
		defer Guard(&err)
		ParallelFor(64, body(fail))
		return nil
	}

	err := run(func() { Panicf("tensor: body 1 fails") })
	if err == nil || err.Error() != "tensor: body 1 fails" {
		t.Fatalf("error %v, want the body's violation", err)
	}
	if s, f := started.Load(), finished.Load(); s != f || s == 64 {
		t.Fatalf("%d calls started, %d returned: the join must wait for every call and stop taking indices", s, f)
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the calls, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParallelForCrashNamesItsOrigin: a panic in a body that is not a
// Panicf violation is a bug, not the call's error. It crashes the
// process (here a child test process), and the crash's trace names the
// function that faulted.
func TestParallelForCrashNamesItsOrigin(t *testing.T) {
	if os.Getenv("TENSOR_PARALLEL_CRASH_CHILD") == "1" {
		runtime.GOMAXPROCS(2)
		var err error
		defer Guard(&err)
		ParallelFor(64, func(i int) {
			if i == 1 {
				writeNilMap()
			}
			time.Sleep(time.Millisecond)
		})
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestParallelForCrashNamesItsOrigin$")
	cmd.Env = append(os.Environ(), "TENSOR_PARALLEL_CRASH_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("a nil-map write inside ParallelFor did not crash the process:\n%s", out)
	}
	for _, want := range []string{"assignment to entry in nil map", "tensor.writeNilMap("} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("the crash does not name %q:\n%s", want, out)
		}
	}
}

//go:noinline
func writeNilMap() {
	var m map[int]int
	m[0] = 1
}

// TestParallelBatchesCoverEachIndexOnce: the batches tile [0, n) with
// at most blockInputs indices each, at any worker count.
func TestParallelBatchesCoverEachIndexOnce(t *testing.T) {
	atGOMAXPROCS(t, []int{1, 3}, func(t *testing.T) {
		for _, n := range []int{0, 1, 4, 5, 50} {
			seen := make([]atomic.Int64, n)
			ParallelBatches(n, func(lo, hi int) {
				if hi-lo < 1 || hi-lo > blockInputs || lo%blockInputs != 0 {
					t.Errorf("n %d: batch [%d, %d)", n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					seen[i].Add(1)
				}
			})
			for i := range seen {
				if c := seen[i].Load(); c != 1 {
					t.Fatalf("n %d: index %d ran %d times", n, i, c)
				}
			}
		}
	})
}
