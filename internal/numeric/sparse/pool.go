package sparse

import "sync"

// Pool is a persistent worker pool for the parallel kernels. The per-call
// `go func` fan-out of the original kernels re-created every goroutine on
// every product — thousands of times per transient series — so the solve
// path keeps one Pool alive across iterations instead (a ctmc solve starts
// one per call and closes it before returning).
//
// Workers are started lazily on the first Run and stay parked on a channel
// until Close. Run is safe for concurrent use: several solves may dispatch
// onto one pool at once, each waiting only for its own partitions. A nil
// or closed pool degrades to inline sequential execution, never to an
// error, so kernel results are identical whichever way the work ran.
type Pool struct {
	mu      sync.Mutex
	size    int
	work    chan poolTask
	quit    chan struct{}
	wg      sync.WaitGroup
	started bool
	closed  bool
}

type poolTask struct {
	fn   func(part int)
	part int
	done *sync.WaitGroup
}

// NewPool returns an idle pool that will run size pinned worker
// goroutines once work first arrives. A size below 1 is clamped to 1.
func NewPool(size int) *Pool {
	if size < 1 {
		size = 1
	}
	return &Pool{size: size}
}

// Size returns the number of worker goroutines the pool runs when started.
func (p *Pool) Size() int {
	if p == nil {
		return 0
	}
	return p.size
}

// startLocked spins up the workers. Callers must hold p.mu.
func (p *Pool) startLocked() {
	p.work = make(chan poolTask)
	p.quit = make(chan struct{})
	p.started = true
	p.wg.Add(p.size)
	for i := 0; i < p.size; i++ {
		go p.worker()
	}
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case t := <-p.work:
			t.fn(t.part)
			t.done.Done()
		case <-p.quit:
			return
		}
	}
}

// Run executes fn(0) … fn(parts-1) and returns when all calls have
// finished. The first parts-1 calls are handed to the pool workers; the
// caller's goroutine runs the last one itself, so a single-part dispatch
// costs nothing beyond the function call. Partitions must write disjoint
// data — Run imposes no ordering between them.
//
// On a nil or closed pool every part runs inline on the caller's
// goroutine; if the pool closes mid-dispatch the unsent parts do too.
// Either way all parts run exactly once before Run returns.
func (p *Pool) Run(parts int, fn func(part int)) {
	if parts <= 0 {
		return
	}
	if p == nil {
		for i := 0; i < parts; i++ {
			fn(i)
		}
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		for i := 0; i < parts; i++ {
			fn(i)
		}
		return
	}
	if !p.started {
		p.startLocked()
	}
	work, quit := p.work, p.quit
	p.mu.Unlock()
	var done sync.WaitGroup
	done.Add(parts - 1)
	for i := 0; i < parts-1; i++ {
		// The send races only with Close: when quit wins, the part runs
		// inline. A worker that already accepted a task always finishes it
		// before exiting, so done is balanced in every interleaving.
		select {
		case work <- poolTask{fn: fn, part: i, done: &done}:
		case <-quit:
			fn(i)
			done.Done()
		}
	}
	fn(parts - 1)
	done.Wait()
}

// Close shuts the workers down and waits for them to exit, so goroutine
// counts are back to baseline when it returns. Close is idempotent and
// safe to race with Run (in-flight dispatches fall back to inline
// execution). A closed pool still Runs work — inline.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	started := p.started
	if started {
		close(p.quit)
	}
	p.mu.Unlock()
	if started {
		p.wg.Wait()
	}
}
