package sim

// A WaitGroup counts outstanding activities in virtual time. Unlike
// sync.WaitGroup it is safe to Add after waiters have blocked, because all
// execution is serialized by the kernel. The zero value has count zero.
type WaitGroup struct {
	n    int
	zero Signal
}

// Add increments the count by delta, which may be negative.
func (wg *WaitGroup) Add(delta int) {
	wg.n += delta
	if wg.n < 0 {
		panic("sim: negative WaitGroup count")
	}
	if wg.n == 0 {
		wg.zero.Broadcast()
	}
}

// Done decrements the count by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks p until the count reaches zero. If the count is already zero
// it returns immediately.
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.n > 0 {
		wg.zero.Wait(p)
	}
}

// Count reports the current count.
func (wg *WaitGroup) Count() int { return wg.n }
