package core

import "ampom/internal/memory"

// The reference model: the straightforward full-window stride search and
// the map- and closure-based score, pivot and zone construction Analyze
// used before it became allocation-free. The fuzz target compares Analyze against it element by
// element, so the buffer reuse and the interval-based dedupe in zone stay
// exactly the same model.

func refStrideOf(p *Prefetcher, w []memory.PageNum, i int) int {
	for j := i + 1; j < len(w); j++ {
		if w[j] == w[i]+1 {
			if d := j - i; d <= p.cfg.DMax {
				return d
			}
			return 0
		}
	}
	return 0
}

func refScore(p *Prefetcher, w []memory.PageNum) float64 {
	minD := map[memory.PageNum]int{}
	var order []memory.PageNum
	for i := range w {
		d := refStrideOf(p, w, i)
		if d == 0 {
			continue
		}
		old, ok := minD[w[i]]
		if !ok {
			order = append(order, w[i])
		}
		if !ok || d < old {
			minD[w[i]] = d
		}
	}
	members := map[link]bool{}
	counts := make([]int64, p.cfg.DMax+1)
	for _, pg := range order {
		d := minD[pg]
		for _, m := range []link{{pg, d}, {pg + 1, d}} {
			if !members[m] {
				members[m] = true
				counts[d]++
			}
		}
	}
	s := 0.0
	for d := 1; d <= p.cfg.DMax; d++ {
		s += float64(counts[d]) / (float64(p.cfg.WindowLen) * float64(d))
	}
	if s > 1 {
		s = 1
	}
	return s
}

func refPivots(p *Prefetcher, w []memory.PageNum) []memory.PageNum {
	var out []memory.PageNum
	seen := map[memory.PageNum]bool{}
	n := len(w)
	for i := range w {
		d := refStrideOf(p, w, i)
		if d == 0 || i+d < n-d {
			continue
		}
		piv := w[i+d] + 1
		if piv >= 0 && piv < p.maxPage && !seen[piv] {
			seen[piv] = true
			out = append(out, piv)
		}
	}
	return out
}

func refZone(p *Prefetcher, w []memory.PageNum, pivots []memory.PageNum, n int) []memory.PageNum {
	out := make([]memory.PageNum, 0, n)
	chosen := make(map[memory.PageNum]bool, n)
	add := func(page memory.PageNum) bool {
		if page < 0 || page >= p.maxPage || chosen[page] {
			return false
		}
		chosen[page] = true
		out = append(out, page)
		return true
	}

	if len(pivots) == 0 {
		last := w[len(w)-1]
		for i := 1; len(out) < n; i++ {
			page := last + memory.PageNum(i)
			if page >= p.maxPage {
				break
			}
			add(page)
		}
		return out
	}

	m := len(pivots)
	for idx, piv := range pivots {
		q := n / m
		if idx < n%m {
			q++
		}
		for page := piv; q > 0 && page < p.maxPage; page++ {
			if add(page) {
				q--
			}
		}
	}
	return out
}
