// Package eventq implements the pending-event set of the discrete-event
// simulator: a binary min-heap ordered by firing time, then by the virtual
// instant the event was scheduled at, then by a monotonically increasing
// sequence number, so that events scheduled earlier fire earlier. In a
// single-engine run the scheduling instant never decreases between pushes,
// which makes (At, PushedAt, Seq) the same total order as (At, Seq) — but
// a sharded run injects events pushed by other engines after the fact, and
// PushedAt is what lets those merge into the exact slot the sequential
// schedule would have given them. Stable tie-breaking is what makes
// simulations deterministic.
//
// Events are stored by value, so pushing allocates nothing beyond slice
// growth. An event is named only by the sequence number Push returns.
package eventq

import "ampom/internal/simtime"

// Event is a scheduled callback.
type Event struct {
	At       simtime.Time // firing instant
	PushedAt simtime.Time // virtual instant the push happened; breaks At ties
	Seq      uint64       // insertion order, breaks (At, PushedAt) ties
	Fn       func()       // callback
}

// Queue is a time-ordered event set. The zero value is ready to use.
// Queue is not safe for concurrent use; the simulation engine owns it.
type Queue struct {
	heap []Event
	seq  uint64
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// Push schedules fn to fire at instant at and returns its sequence number,
// which Cancel accepts. pushedAt is the virtual instant the scheduling happens
// at (the engine clock of the pusher); it orders coincident firings ahead
// of the insertion sequence.
func (q *Queue) Push(at, pushedAt simtime.Time, fn func()) uint64 {
	q.heap = append(q.heap, Event{At: at, PushedAt: pushedAt, Seq: q.seq, Fn: fn})
	q.seq++
	q.up(len(q.heap) - 1)
	return q.seq - 1
}

// Peek returns the earliest pending event without removing it; ok is false
// if the queue is empty.
func (q *Queue) Peek() (e Event, ok bool) {
	if len(q.heap) == 0 {
		return Event{}, false
	}
	return q.heap[0], true
}

// Pop removes and returns the earliest pending event; ok is false if the
// queue is empty.
func (q *Queue) Pop() (e Event, ok bool) {
	if len(q.heap) == 0 {
		return Event{}, false
	}
	e = q.heap[0]
	q.remove(0)
	return e, true
}

// Cancel removes the pending event with sequence number seq so it will never
// fire. Cancelling an event that already fired or was already cancelled is a
// no-op: sequence numbers are never reused. It returns whether the event was
// actually removed. The search is linear; only a stopped ticker cancels.
func (q *Queue) Cancel(seq uint64) bool {
	for i := range q.heap {
		if q.heap[i].Seq == seq {
			q.remove(i)
			return true
		}
	}
	return false
}

// remove deletes heap slot i, filling it with the last event.
func (q *Queue) remove(i int) {
	last := len(q.heap) - 1
	q.heap[i] = q.heap[last]
	q.heap[last] = Event{} // drop the callback for the collector
	q.heap = q.heap[:last]
	if i < last && !q.up(i) {
		q.down(i)
	}
}

// before orders events by firing time, then by scheduling instant, then by
// insertion sequence.
func (a *Event) before(b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.PushedAt != b.PushedAt {
		return a.PushedAt < b.PushedAt
	}
	return a.Seq < b.Seq
}

// up restores the heap property walking towards the root, moving parents
// into the hole instead of swapping. It reports whether the element moved.
func (q *Queue) up(i int) bool {
	h, e, start := q.heap, q.heap[i], i
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	return i != start
}

// down restores the heap property walking towards the leaves.
func (q *Queue) down(i int) {
	h, e, n := q.heap, q.heap[i], len(q.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		smallest := left
		if right := left + 1; right < n && h[right].before(&h[left]) {
			smallest = right
		}
		if !h[smallest].before(&e) {
			break
		}
		h[i] = h[smallest]
		i = smallest
	}
	h[i] = e
}
