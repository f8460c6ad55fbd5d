// Package paging implements the remote paging support of paper §2.2: the
// wire protocol between a migrant and the deputy process left at its origin
// node, the deputy itself, and the migrant-side pager that tracks page
// residency, batches prefetch requests, and accounts every statistic the
// evaluation figures need.
//
// Protocol: the migrant sends one PageRequest per fault-time analysis,
// carrying an optional demand page and the dependent-zone pages to
// prefetch. The deputy replies with one PageReply message per page —
// demand page first — so replies stream back-to-back down the link and the
// round-trip latency is paid once per batch (the pipelining effect of
// §5.4). Serving a page deletes it at the origin and updates the HPT; the
// migrant flips its MPT entry when the page arrives.
package paging

import (
	"fmt"

	"ampom/internal/cluster"
	"ampom/internal/memory"
	"ampom/internal/netmodel"
	"ampom/internal/simtime"
)

// NoDemand marks a PageRequest that carries only prefetches.
const NoDemand = memory.PageNum(-1)

// Wire sizing. Page identifiers travel as 6-byte table entries, matching
// the MPT entry size.
const (
	ReqHeaderBytes  = 64
	ReqPerPageBytes = 6
	ReplyOverhead   = 64
)

// PageRequest asks the deputy for pages. Demand is the faulted page the
// migrant is stalled on (NoDemand if none); Prefetch lists dependent-zone
// pages wanted ahead of use.
type PageRequest struct {
	Seq      uint64
	Demand   memory.PageNum
	Prefetch []memory.PageNum
}

// WireSize returns the request's bytes on the wire.
func (r PageRequest) WireSize() int64 { return ReqHeaderBytes + int64(r.pages())*ReqPerPageBytes }

// pages counts the page identifiers the request carries.
func (r PageRequest) pages() int {
	n := len(r.Prefetch)
	if r.Demand != NoDemand {
		n++
	}
	return n
}

// PageReply carries one page of data to the migrant.
type PageReply struct {
	Seq    uint64
	Page   memory.PageNum
	Demand bool // serving the request's demand page
}

// WireSize returns the reply's bytes on the wire.
func (r PageReply) WireSize() int64 { return memory.PageSize + ReplyOverhead }

// DeputyConfig prices the deputy's CPU work.
type DeputyConfig struct {
	// ServeBase is charged once per request (wakeup, request parse).
	ServeBase simtime.Duration
	// ServePerPage is charged per page looked up and queued.
	ServePerPage simtime.Duration
}

// DefaultDeputyConfig returns the 2 GHz P4 calibration.
func DefaultDeputyConfig() DeputyConfig {
	return DeputyConfig{
		ServeBase:    25 * simtime.Microsecond,
		ServePerPage: 2 * simtime.Microsecond,
	}
}

// DeputyStats counts the deputy's served traffic.
type DeputyStats struct {
	Requests       int64 // requests received
	DemandServed   int64 // demand pages sent
	PrefetchServed int64 // prefetch pages sent
	Skipped        int64 // requested pages no longer stored at the origin
	BytesSent      int64
}

// Deputy is the origin-side stub process: after migration it "only answers
// remote paging requests and executes system calls on behalf of the
// migrant" (§2.2). It owns the HPT side of the table pair.
//
// A Deputy also models the *file server* of Roush's original Freeze Free
// Algorithm: with SetAvailableAfter, page service is gated until the
// origin's dirty-page flush has landed (paper Figure 2, middle).
type Deputy struct {
	cfg    DeputyConfig
	node   *cluster.Node
	link   *netmodel.Link
	tables *memory.TablePair

	availableAfter simtime.Time
	gated          []PageRequest // parked until the backing store is ready

	Stats DeputyStats
}

// SetAvailableAfter gates page service until instant t: requests arriving
// earlier are parked and drained once the store holds the pages. Passing
// the current time (or any past instant) releases parked requests
// immediately.
func (d *Deputy) SetAvailableAfter(t simtime.Time) {
	d.availableAfter = t
	if d.node.Eng.Now() < t {
		return
	}
	for _, req := range d.gated {
		d.schedule(req)
	}
	d.gated = nil
}

// NewDeputy installs a deputy on node serving pages across link from the
// table pair. It registers itself as a payload handler.
func NewDeputy(cfg DeputyConfig, node *cluster.Node, link *netmodel.Link, tables *memory.TablePair) *Deputy {
	d := &Deputy{cfg: cfg, node: node, link: link, tables: tables}
	node.Handle(d.handle)
	return d
}

func (d *Deputy) handle(payload any) bool {
	req, ok := payload.(PageRequest)
	if !ok {
		return false
	}
	d.Stats.Requests++
	if d.node.Eng.Now() < d.availableAfter {
		d.gated = append(d.gated, req)
		return true
	}
	d.schedule(req)
	return true
}

// schedule charges the deputy's CPU time for looking up req's pages, then
// serves them.
func (d *Deputy) schedule(req PageRequest) {
	cost := d.node.Scale(d.cfg.ServeBase + d.cfg.ServePerPage*simtime.Duration(req.pages()))
	d.node.Eng.Schedule(cost, func() { d.serve(req) })
}

// serve sends the demand page first — the migrant is stalled on it — and
// the dependent zone streams behind it. The pager never lists the demand
// page among the prefetches.
func (d *Deputy) serve(req PageRequest) {
	if req.Demand != NoDemand {
		d.send(req.Seq, req.Demand, true)
	}
	for _, p := range req.Prefetch {
		d.send(req.Seq, p, false)
	}
}

// send transfers page p to the migrant as one reply of request seq.
func (d *Deputy) send(seq uint64, p memory.PageNum, demand bool) {
	if d.tables.HPT.Loc(p) == memory.LocUnmapped {
		// Already transferred (or never stored) — a benign race when a
		// demand fault and an in-flight prefetch cross on the wire.
		d.Stats.Skipped++
		return
	}
	if err := d.tables.TransferToMigrant(p); err != nil {
		panic(fmt.Sprintf("paging: deputy serving page %d: %v", p, err))
	}
	rep := PageReply{Seq: seq, Page: p, Demand: demand}
	d.Stats.BytesSent += rep.WireSize()
	if demand {
		d.Stats.DemandServed++
	} else {
		d.Stats.PrefetchServed++
	}
	d.link.Send(d.node.NIC, netmodel.Message{Size: rep.WireSize(), Payload: rep})
}
