package core

import (
	"slices"
	"testing"

	"ampom/internal/memory"
	"ampom/internal/simtime"
)

// FuzzPrefetcherFault drives the AMPoM engine with arbitrary fault address
// streams — every configuration the fuzzer can reach, every byte-derived
// page sequence — and checks the per-fault analysis invariants the
// migration executor relies on: the score stays in [0, 1], the dependent
// zone respects the cap and the address-space bounds, and the zone never
// contains duplicates. It also replays every analysis on the reference
// model (reference_test.go) and requires the same score and, element by
// element in order, the same pivots and zone. Run with `go test -fuzz FuzzPrefetcherFault`; `make
// ci` gives it a 10 s smoke.
func FuzzPrefetcherFault(f *testing.F) {
	// Seed corpus: a sequential sweep, a strided reader, random-ish noise,
	// a constant page, descending addresses, and two interleaved stride-2
	// streams four pages apart, whose ~15-page zones overlap (the
	// saved-quota path), over assorted configs.
	f.Add(uint8(20), uint8(4), uint16(128), false, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(10), uint8(2), uint16(32), true, []byte{0, 3, 6, 9, 12, 15, 18, 21})
	f.Add(uint8(5), uint8(1), uint16(8), false, []byte{200, 17, 93, 4, 150, 62, 255, 0, 31})
	f.Add(uint8(2), uint8(1), uint16(1), true, []byte{7, 7, 7, 7, 7, 7})
	f.Add(uint8(40), uint8(8), uint16(512), false, []byte{250, 240, 230, 220, 210, 200})
	f.Add(uint8(8), uint8(2), uint16(128), false, []byte{0, 100, 0, 104, 0, 101, 0, 105, 0, 102, 0, 106, 0, 103, 0, 107})

	f.Fuzz(func(t *testing.T, windowLen, dmax uint8, cap16 uint16, disableBaseline bool, stream []byte) {
		if len(stream) > 512 {
			// The per-fault analysis is O(l²); long streams add time, not
			// coverage.
			stream = stream[:512]
		}
		cfg := Config{
			WindowLen:   int(windowLen),
			DMax:        int(dmax),
			MaxPrefetch: int(cap16),
		}
		if disableBaseline {
			cfg.BaselineScore = -1
		}
		const totalPages = 1 << 16
		p, err := New(cfg, totalPages)
		if err != nil {
			t.Skip() // invalid configuration, rejected as documented
		}
		canon := cfg.Canonical()

		est := Estimates{RTT: 20 * simtime.Millisecond, PageTransfer: 400 * simtime.Microsecond}
		var now simtime.Time
		for i := 0; i+1 < len(stream); i += 2 {
			// Two bytes per fault address; time advances by a byte-derived
			// step so paging rates vary.
			page := memory.PageNum(stream[i])<<8 | memory.PageNum(stream[i+1])
			now = now.Add(simtime.Duration(1+int64(stream[i]))*simtime.Microsecond + simtime.Millisecond)
			cpu := float64(stream[i+1]) / 255
			p.RecordFault(page, now, cpu)

			a := p.Analyze(est)
			if a.Score < 0 || a.Score > 1 {
				t.Fatalf("score %v out of [0,1]", a.Score)
			}
			if a.N < 0 {
				t.Fatalf("negative zone size %d", a.N)
			}
			if canon.MaxPrefetch > 0 && a.N > canon.MaxPrefetch {
				t.Fatalf("zone size %d above cap %d", a.N, canon.MaxPrefetch)
			}
			if len(a.Zone) > a.N {
				t.Fatalf("zone has %d pages for N=%d", len(a.Zone), a.N)
			}
			seen := make(map[memory.PageNum]bool, len(a.Zone))
			for _, pg := range a.Zone {
				if pg < 0 || pg >= totalPages {
					t.Fatalf("zone page %d outside the %d-page address space", pg, int64(totalPages))
				}
				if seen[pg] {
					t.Fatalf("duplicate page %d in zone %v", pg, a.Zone)
				}
				seen[pg] = true
			}
			if a.Streams < 0 || a.Streams > p.WindowLen() {
				t.Fatalf("stream count %d outside window of %d", a.Streams, p.WindowLen())
			}
			if a.PagingRate < 0 {
				t.Fatalf("negative paging rate %v", a.PagingRate)
			}

			if p.WindowLen() < 2 {
				continue
			}
			w := p.Window()
			if want := refScore(p, w); a.Score != want {
				t.Fatalf("window %v: score %v, reference %v", w, a.Score, want)
			}
			wantPiv := refPivots(p, w)
			if !slices.Equal(a.Pivots, wantPiv) {
				t.Fatalf("window %v: pivots %v, reference %v", w, a.Pivots, wantPiv)
			}
			var wantZone []memory.PageNum
			if a.N > 0 {
				wantZone = refZone(p, w, wantPiv, a.N)
			}
			if !slices.Equal(a.Zone, wantZone) {
				t.Fatalf("window %v, N=%d: zone %v, reference %v", w, a.N, a.Zone, wantZone)
			}
		}
		if got, want := p.Faults(), int64(len(stream)/2); got != want {
			t.Fatalf("fault census %d, want %d", got, want)
		}
	})
}
