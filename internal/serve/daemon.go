package serve

import "sync"

// Daemons is the sanctioned registry for long-lived goroutines. Go
// carries the WaitGroup pair mobilstm-lint's goroutinejoin analyzer
// accepts as a join path — wg.Add before the launch, wg.Done in the
// spawned body — and, through the function summaries, a call to Go
// counts as that pair at every call site. The owner collects the whole
// fleet with Wait during shutdown. This keeps the serving loop's
// batcher and worker daemons lint:ignore-free while preserving the
// invariant the rule protects: no goroutine outlives its owner
// unobserved.
type Daemons struct {
	wg sync.WaitGroup
}

// Go launches fn as a registered daemon goroutine.
func (d *Daemons) Go(fn func()) {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		fn()
	}()
}

// Wait blocks until every registered daemon has returned.
func (d *Daemons) Wait() {
	d.wg.Wait()
}
