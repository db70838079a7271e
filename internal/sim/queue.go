package sim

import "math/bits"

// The event queue is a calendar wheel backed by an overflow heap.
//
// The wheel has one bucket per cycle for the wheelSize cycles starting at
// the engine's clock: an event due at cycle at, with now <= at <
// now+wheelSize, lives in bucket at % wheelSize. Because the clock only
// advances to the cycle of the event it pops, every wheel event stays in
// [now, now+wheelSize), so a bucket never holds two different cycles.
// Each bucket is an intrusive singly linked list over one event slab, kept
// sorted by key, and a bitmap marks the occupied buckets; the earliest
// wheel event is the head of the first occupied bucket at or after
// now % wheelSize, in circular order.
//
// Events due further ahead (or, defensively, behind the clock) go to the
// overflow 4-ary min-heap. pop takes the smaller of the wheel head and the
// heap root by (at, key), so the fire order is the strict (at, key) order
// whichever structure holds an event.
const (
	wheelBits = 10
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
	occWords  = wheelSize / 64
)

// wnode is one slab entry: an event and its bucket successor (a slab
// index; 0 ends the list, so slab[0] is never used).
type wnode struct {
	ev   event
	next int32
}

// queue is the engine's pending-event set.
type queue struct {
	slab []wnode
	free int32 // head of the slab free list (0 = empty)
	nw   int   // events in the wheel
	head [wheelSize]int32
	tail [wheelSize]int32
	occ  [occWords]uint64
	// min caches the slab index of the earliest wheel event; 0 means
	// unknown (or an empty wheel), and wheelMin rescans the bitmap.
	min  int32
	over []event // overflow 4-ary min-heap
	// popped holds the event pop last took from the overflow heap.
	popped event
}

// before is the strict total order on events: cycle, then schedule order.
// In domain mode the key embeds the scheduling domain in its high bits, so
// same-cycle ties break by (scheduling domain, per-domain schedule order) —
// an order every shard can reproduce locally, making parallel execution
// bit-identical to serial for the same domain count.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.key < o.key
}

// len returns the number of pending events.
func (q *queue) len() int { return q.nw + len(q.over) }

// inWheel reports whether an event due at at belongs in the wheel:
// now <= at < now+wheelSize (at < now wraps to a huge distance).
func inWheel(at, now Cycle) bool { return at-now < wheelSize }

// push inserts ev, given the current clock now.
func (q *queue) push(ev *event, now Cycle) {
	if !inWheel(ev.at, now) {
		q.heapPush(*ev)
		return
	}
	*q.link(ev.at, ev.key) = *ev
}

// link takes a free slab node, stamps it with (at, key), sorts it into
// bucket at % wheelSize and returns its event for the caller to fill in.
// at must lie in [now, now+wheelSize).
//
//vsnoop:hotpath
func (q *queue) link(at Cycle, key uint64) *event {
	n := q.free
	if n != 0 {
		q.free = q.slab[n].next
	} else {
		if len(q.slab) == 0 {
			q.slab = append(q.slab, wnode{})
		}
		q.slab = append(q.slab, wnode{})
		n = int32(len(q.slab) - 1)
	}
	nd := &q.slab[n]
	nd.ev.at, nd.ev.key, nd.next = at, key, 0
	q.nw++
	if m := q.min; q.nw == 1 || m != 0 && (at < q.slab[m].ev.at || at == q.slab[m].ev.at && key < q.slab[m].ev.key) {
		q.min = n
	}
	b := int(at & wheelMask)
	t := q.tail[b]
	switch {
	case t == 0:
		q.head[b], q.tail[b] = n, n
		q.occ[b>>6] |= 1 << (b & 63)
	case q.slab[t].ev.key < key:
		// In-order append: always the case in single-domain mode, whose
		// keys increase with every schedule.
		q.slab[t].next = n
		q.tail[b] = n
	default:
		// A domain-mode key below the bucket's tail (another domain's
		// counter, or a drained deposit): insertion-sort it in.
		p := &q.head[b]
		for q.slab[*p].ev.key < key {
			p = &q.slab[*p].next
		}
		nd.next = *p
		*p = n
	}
	return &nd.ev
}

// wheelMin returns the slab index of the earliest wheel event (0 when the
// wheel is empty), given the current clock now.
//
//vsnoop:hotpath
func (q *queue) wheelMin(now Cycle) int32 {
	if q.min != 0 || q.nw == 0 {
		return q.min
	}
	start := int(now & wheelMask)
	w := start >> 6
	word := q.occ[w] &^ (1<<(start&63) - 1)
	// occWords+1 probes: the start word's high part, the other words, then
	// the start word again for its low (latest-cycle) buckets.
	for i := 0; i <= occWords; i++ {
		if word != 0 {
			q.min = q.head[w<<6|bits.TrailingZeros64(word)]
			return q.min
		}
		w = (w + 1) & (occWords - 1)
		word = q.occ[w]
	}
	panic("sim: wheel count nonzero but no bucket occupied")
}

// peek returns the cycle of the earliest pending event.
func (q *queue) peek(now Cycle) (Cycle, bool) {
	n := q.wheelMin(now)
	switch {
	case len(q.over) > 0 && (n == 0 || q.over[0].before(&q.slab[n].ev)):
		return q.over[0].at, true
	case n != 0:
		return q.slab[n].ev.at, true
	}
	return 0, false
}

// pop unlinks the earliest event and returns it; the queue must be
// nonempty. The event stays valid until the next push or link, which may
// reuse its storage.
//
//vsnoop:hotpath
func (q *queue) pop(now Cycle) *event {
	n := q.wheelMin(now)
	if len(q.over) > 0 && (n == 0 || q.over[0].before(&q.slab[n].ev)) {
		q.popped = q.heapPop()
		return &q.popped
	}
	nd := &q.slab[n]
	b := int(nd.ev.at & wheelMask)
	q.head[b] = nd.next
	// The bucket's next event, if any, is the new minimum: every other
	// wheel event lies in a later cycle.
	q.min = nd.next
	if nd.next == 0 {
		q.tail[b] = 0
		q.occ[b>>6] &^= 1 << (b & 63)
	}
	nd.next = q.free
	q.free = n
	q.nw--
	return &nd.ev
}

// heapPush inserts ev into the overflow 4-ary heap (sift-up). The
// self-append reuses the backing array, so steady-state pushes allocate
// nothing.
func (q *queue) heapPush(ev event) {
	q.over = append(q.over, ev)
	h := q.over
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// heapPop removes and returns the overflow heap's minimum (sift-down with
// a hole).
func (q *queue) heapPop() event {
	h := q.over
	root := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release fn/arg references held by the backing array
	h = h[:n]
	q.over = h
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if h[j].before(&h[m]) {
					m = j
				}
			}
			if !h[m].before(&last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return root
}
