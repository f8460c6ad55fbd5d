package eventq

import (
	"container/heap"
	"testing"

	"ampom/internal/simtime"
)

// refEvent mirrors Event inside the container/heap reference model.
type refEvent struct {
	at       simtime.Time
	pushedAt simtime.Time
	seq      uint64
	index    int // heap index, -1 once removed
}

// refHeap is the trusted oracle: the standard library's heap over the same
// (At, PushedAt, Seq) order the queue promises.
type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].pushedAt != h[j].pushedAt {
		return h[i].pushedAt < h[j].pushedAt
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// FuzzQueueVsHeap drives an interleaved Push/Pop/Cancel schedule against
// both the queue and the container/heap reference and fails on any
// divergence in lengths, pop order or cancel outcomes. The byte stream is
// consumed three bytes per operation: opcode, then two operands (firing
// time and scheduling instant for pushes — deliberately unordered, the
// queue is a plain priority set — or a 16-bit selector for cancels). A
// cancel opcode with bit 2 clear names an issued sequence number (the
// selector modulo the pushes so far), live or already gone; with bit 2
// set it names one not issued yet.
func FuzzQueueVsHeap(f *testing.F) {
	// Pops interleaved with pushes.
	f.Add([]byte{0, 5, 0, 0, 3, 0, 2, 0, 0, 0, 1, 0, 2, 0, 0, 2, 0, 0})
	// A selector far past the push count wraps (65535 mod 3 = 0) onto
	// the oldest sequence number, here the head.
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 3, 255, 255, 2, 0, 0})
	// Cancel of the head while later, larger elements must sift down.
	f.Add([]byte{0, 9, 0, 0, 1, 0, 0, 8, 0, 0, 7, 0, 3, 0, 1, 2, 0, 0, 2, 0, 0})
	// Double cancel and cancel-after-pop: both must agree on "false".
	f.Add([]byte{0, 4, 0, 3, 0, 0, 3, 0, 0, 0, 2, 0, 2, 0, 0, 3, 0, 0})
	// Cancel of the last heap element: the newest of three ordered pushes.
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 3, 0, 2, 2, 0, 0})
	// Cancel of sequence numbers not issued yet, before and after pushes.
	f.Add([]byte{7, 0, 0, 0, 2, 0, 7, 0, 0, 7, 0, 9, 2, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			q    Queue
			ref  refHeap
			refs []*refEvent // the reference twin of each pushed event, by sequence number
		)
		for len(data) >= 3 {
			op, a, b := data[0], data[1], data[2]
			data = data[3:]
			switch op % 4 {
			case 0, 1: // push — weighted so schedules actually grow
				at := simtime.Time(a % 64)
				pushedAt := simtime.Time(b % 16) // coarse, to force At+PushedAt ties
				r := &refEvent{at: at, pushedAt: pushedAt, seq: uint64(len(refs))}
				if seq := q.Push(at, pushedAt, func() {}); seq != r.seq {
					t.Fatalf("push returned seq %d, want %d", seq, r.seq)
				}
				heap.Push(&ref, r)
				refs = append(refs, r)
			case 2: // pop
				got, ok := q.Pop()
				if len(ref) == 0 {
					if ok {
						t.Fatalf("pop: queue returned (at=%v seq=%d), reference empty", got.At, got.Seq)
					}
					continue
				}
				want := heap.Pop(&ref).(*refEvent)
				if !ok {
					t.Fatalf("pop: queue empty, reference has (at=%v seq=%d)", want.at, want.seq)
				}
				if got.At != want.at || got.PushedAt != want.pushedAt || got.Seq != want.seq {
					t.Fatalf("pop: queue (at=%v seq=%d), reference (at=%v seq=%d)",
						got.At, got.Seq, want.at, want.seq)
				}
			case 3: // cancel an issued (possibly already gone) or unissued seq
				sel := uint64(a)<<8 | uint64(b)
				issued := uint64(len(refs))
				var seq uint64
				want := false
				if op&4 != 0 || issued == 0 {
					seq = issued + sel
				} else {
					seq = sel % issued
					if r := refs[seq]; r.index >= 0 {
						heap.Remove(&ref, r.index)
						want = true
					}
				}
				if got := q.Cancel(seq); got != want {
					t.Fatalf("cancel seq %d: queue=%v, reference=%v", seq, got, want)
				}
			}
			if q.Len() != len(ref) {
				t.Fatalf("len: queue=%d, reference=%d", q.Len(), len(ref))
			}
		}
		// Drain both; the tails must agree element for element.
		for {
			got, ok := q.Pop()
			if len(ref) == 0 {
				if ok {
					t.Fatalf("drain: queue returned (at=%v seq=%d), reference empty", got.At, got.Seq)
				}
				return
			}
			want := heap.Pop(&ref).(*refEvent)
			if !ok || got.At != want.at || got.Seq != want.seq {
				t.Fatalf("drain: queue (at=%v seq=%d ok=%v), reference (at=%v seq=%d)",
					got.At, got.Seq, ok, want.at, want.seq)
			}
		}
	})
}
