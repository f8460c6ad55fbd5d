package eventq

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"ampom/internal/simtime"
)

func TestPopOrder(t *testing.T) {
	var q Queue
	times := []simtime.Time{5, 1, 3, 2, 4}
	for _, at := range times {
		q.Push(at, 0, func() {})
	}
	for want := simtime.Time(1); want <= 5; want++ {
		e, ok := q.Pop()
		if !ok || e.At != want {
			t.Fatalf("pop = %v (ok=%v), want %v", e.At, ok, want)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty queue reported an event")
	}
}

func TestTieBreakBySequence(t *testing.T) {
	var q Queue
	var order []int
	for i := 0; i < 10; i++ {
		q.Push(7, 0, func() { order = append(order, i) })
	}
	for {
		e, ok := q.Pop()
		if !ok {
			break
		}
		e.Fn()
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of insertion order: %v", order)
		}
	}
}

func TestPeek(t *testing.T) {
	var q Queue
	if _, ok := q.Peek(); ok {
		t.Fatal("peek on empty queue reported an event")
	}
	q.Push(9, 0, func() {})
	seq := q.Push(2, 0, func() {})
	if got, ok := q.Peek(); !ok || got.Seq != seq || got.At != 2 {
		t.Fatalf("peek = %+v (ok=%v), want the earliest event (seq %d)", got, ok, seq)
	}
	if q.Len() != 2 {
		t.Fatalf("len = %d, want 2 (peek must not remove)", q.Len())
	}
}

func TestCancel(t *testing.T) {
	var q Queue
	a := q.Push(1, 0, func() {})
	b := q.Push(2, 0, func() {})
	c := q.Push(3, 0, func() {})
	if !q.Cancel(b) {
		t.Fatal("cancel of pending event returned false")
	}
	if q.Cancel(b) {
		t.Fatal("second cancel returned true")
	}
	if got, _ := q.Pop(); got.Seq != a {
		t.Fatalf("pop = seq %d, want a (%d)", got.Seq, a)
	}
	if got, _ := q.Pop(); got.Seq != c {
		t.Fatalf("pop = seq %d, want c (%d)", got.Seq, c)
	}
	if q.Cancel(a) {
		t.Fatal("cancel of popped event returned true")
	}
	if q.Cancel(c + 1) {
		t.Fatal("cancel of a never-issued sequence number returned true")
	}
}

func TestCancelHead(t *testing.T) {
	var q Queue
	head := q.Push(1, 0, func() {})
	q.Push(2, 0, func() {})
	q.Push(3, 0, func() {})
	q.Cancel(head)
	if got, _ := q.Pop(); got.At != 2 {
		t.Fatalf("after cancelling head, pop.At = %v, want 2", got.At)
	}
}

func TestCancelLast(t *testing.T) {
	var q Queue
	q.Push(1, 0, func() {})
	last := q.Push(2, 0, func() {})
	q.Cancel(last)
	if q.Len() != 1 {
		t.Fatalf("len = %d, want 1", q.Len())
	}
}

func TestLen(t *testing.T) {
	var q Queue
	for i := 0; i < 100; i++ {
		q.Push(simtime.Time(i), 0, func() {})
	}
	if q.Len() != 100 {
		t.Fatalf("len = %d", q.Len())
	}
	for i := 0; i < 40; i++ {
		q.Pop()
	}
	if q.Len() != 60 {
		t.Fatalf("len after pops = %d", q.Len())
	}
}

// TestPopsSortedProperty: any multiset of times pops in non-decreasing
// order, with ties in insertion order.
func TestPopsSortedProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		var q Queue
		for _, r := range raw {
			q.Push(simtime.Time(r%1000), 0, func() {})
		}
		var prevAt simtime.Time = -1
		var prevSeq uint64
		for {
			e, ok := q.Pop()
			if !ok {
				break
			}
			if e.At < prevAt {
				return false
			}
			if e.At == prevAt && e.Seq < prevSeq {
				return false
			}
			prevAt, prevSeq = e.At, e.Seq
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCancelRandomProperty: cancelling an arbitrary subset leaves exactly
// the survivors, still sorted.
func TestCancelRandomProperty(t *testing.T) {
	f := func(raw []uint16, mask uint64) bool {
		var q Queue
		seqs := make([]uint64, len(raw))
		for i, r := range raw {
			seqs[i] = q.Push(simtime.Time(r), 0, func() {})
		}
		var survivors []simtime.Time
		for i, seq := range seqs {
			if mask&(1<<(uint(i)%64)) != 0 && i%3 == 0 {
				if !q.Cancel(seq) {
					return false
				}
			} else {
				survivors = append(survivors, simtime.Time(raw[i]))
			}
		}
		sort.Slice(survivors, func(i, j int) bool { return survivors[i] < survivors[j] })
		for _, want := range survivors {
			e, ok := q.Pop()
			if !ok || e.At != want {
				return false
			}
		}
		_, ok := q.Pop()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// steadyQueue returns a queue holding n pending events at pseudo-random
// instants, and the generator state to continue the sequence with.
func steadyQueue(n int) (*Queue, uint64) {
	q := &Queue{}
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		q.Push(simtime.Time(x>>40), 0, noop)
	}
	return q, x
}

var noop = func() {}

// TestQueueZeroAllocs pins the steady state at zero allocations: once the
// heap has grown to its working size, pop-then-push and push-then-cancel
// reuse its storage.
func TestQueueZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	q, _ := steadyQueue(1024)
	popPush := func() {
		e, _ := q.Pop()
		q.Push(e.At+simtime.Time(e.Seq%977), e.At, e.Fn)
	}
	if got := testing.AllocsPerRun(1000, popPush); got != 0 {
		t.Errorf("pop+push allocates %v times per op, want 0", got)
	}
	pushCancel := func() { q.Cancel(q.Push(1<<50, 0, noop)) }
	if got := testing.AllocsPerRun(1000, pushCancel); got != 0 {
		t.Errorf("push+cancel allocates %v times per op, want 0", got)
	}
}

// BenchmarkQueue measures the steady-state event-queue operation of every
// simulation: pop the earliest of n pending events and push its successor
// a pseudo-random delay later, so the heap size stays at n.
func BenchmarkQueue(b *testing.B) {
	for _, n := range []int{16, 1024, 65536} {
		b.Run(fmt.Sprintf("pending=%d", n), func(b *testing.B) {
			q, x := steadyQueue(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, _ := q.Pop()
				x = x*6364136223846793005 + 1442695040888963407
				q.Push(e.At+simtime.Time(x>>48), e.At, e.Fn)
			}
		})
	}
}
