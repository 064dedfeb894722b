package ids

import (
	"sync"
	"sync/atomic"
)

// Bus is the policy-controlled subscription channel between the GAA-API
// and IDS components (paper section 9: "a subscription-based
// communication channel to allow GAA-API and IDSs to communicate").
// Delivery is a call: Publish runs every listener on the publisher's
// goroutine, so when it returns each listener has acted on the report
// and none can be lost to a full queue.
type Bus struct {
	mu        sync.Mutex // serialises OnReport
	listeners atomic.Pointer[[]func(Report)]
	published atomic.Uint64
}

// NewBus returns an empty bus.
func NewBus() *Bus {
	return &Bus{}
}

// OnReport registers fn to be called with every later report, on the
// publisher's goroutine and in registration order. fn runs on the
// request path, so it must be cheap, safe for concurrent calls, and
// must not publish.
func (b *Bus) OnReport(fn func(Report)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var ls []func(Report)
	if cur := b.listeners.Load(); cur != nil {
		ls = append(ls, *cur...)
	}
	ls = append(ls, fn)
	b.listeners.Store(&ls)
}

// Publish delivers r to every listener before it returns.
func (b *Bus) Publish(r Report) {
	b.published.Add(1)
	if ls := b.listeners.Load(); ls != nil {
		for _, fn := range *ls {
			fn(r)
		}
	}
}

// Published returns the total number of published reports.
func (b *Bus) Published() uint64 {
	return b.published.Load()
}
