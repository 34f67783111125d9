package main

import (
	"sort"
	"sync"
	"time"
)

// tracer records spans with parent links around the harness's calls into
// depscope's layers. Spans stay in memory until the run ends.
//
// A call span wraps calls into depscope and nothing else; a group span
// (the job, a snapshot, the report) only holds other spans. Time the
// harness spends between spans is a group's self time, and the ledger
// counts it as unexplained.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

type span struct {
	id, parent int
	name       string
	group      bool
	start, end time.Time
}

// start opens a call span under parent and returns its id.
func (t *tracer) start(parent int, name string) int { return t.open(parent, name, false) }

// startGroup opens a group span under parent (0 for a root).
func (t *tracer) startGroup(parent int, name string) int { return t.open(parent, name, true) }

func (t *tracer) open(parent int, name string, group bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, group: group, start: time.Now()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// do runs f, which calls into depscope, inside a call span under parent.
func (t *tracer) do(parent int, name string, f func()) {
	id := t.start(parent, name)
	f()
	t.end(id)
}

// group runs f, which opens spans under the id it is given, inside a group
// span under parent.
func (t *tracer) group(parent int, name string, f func(id int)) {
	id := t.startGroup(parent, name)
	f(id)
	t.end(id)
}

// total sums the durations of every span with the given name, in seconds.
func (t *tracer) total(name string) float64 {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.end.Sub(s.start)
		}
	}
	return d.Seconds()
}

// ledgerRow aggregates the spans of one name: how often it ran, its total
// and self time (duration minus the part its children cover) and its time
// on the critical path.
type ledgerRow struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	TotalS    float64 `json:"total_s"`
	SelfS     float64 `json:"self_s"`
	CriticalS float64 `json:"critical_s"`
}

// ledger computes per-name rows and the share of root's wall time that the
// critical path explains. The critical path is walked backwards from a
// span's end: the child that finished last before the cursor is on it, the
// cursor moves to that child's start, and so on; the walk recurses into
// each chosen child. Time on the path not covered by any child is the
// parent's own (self) time. Coverage is the share of root's wall time spent
// inside call spans on the path; a group's self time on the path is time
// the harness spent outside depscope's calls, and stays unexplained.
func (t *tracer) ledger(root int) (rows []ledgerRow, coverage float64) {
	children := make(map[int][]span)
	for _, s := range t.spans {
		children[s.parent] = append(children[s.parent], s)
	}
	byName := make(map[string]*ledgerRow)
	var order []string
	row := func(name string) *ledgerRow {
		r, ok := byName[name]
		if !ok {
			r = &ledgerRow{Name: name}
			byName[name] = r
			order = append(order, name)
		}
		return r
	}
	for _, s := range t.spans {
		r := row(s.name)
		r.Count++
		r.TotalS += s.end.Sub(s.start).Seconds()
		r.SelfS += (s.end.Sub(s.start) - covered(s, children[s.id])).Seconds()
	}
	// walk returns the time on s's critical path spent inside call spans.
	var walk func(s span) time.Duration
	walk = func(s span) time.Duration {
		var inChildren, explained time.Duration
		for _, c := range criticalChildren(s, children[s.id]) {
			inChildren += c.end.Sub(c.start)
			explained += walk(c)
		}
		row(s.name).CriticalS += (s.end.Sub(s.start) - inChildren).Seconds()
		if !s.group {
			return s.end.Sub(s.start)
		}
		return explained
	}
	r := t.spans[root-1]
	explained := walk(r)
	for _, name := range order {
		rows = append(rows, *byName[name])
	}
	if wall := r.end.Sub(r.start); wall > 0 {
		coverage = explained.Seconds() / wall.Seconds()
	}
	return rows, coverage
}

// criticalChildren picks, from the latest end backwards, the children that
// form the critical path through s.
func criticalChildren(s span, kids []span) []span {
	sorted := append([]span(nil), kids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].end.After(sorted[j].end) })
	var path []span
	cursor := s.end
	for _, c := range sorted {
		if c.end.After(cursor) {
			continue // overlaps a later path member: it ran in parallel
		}
		path = append(path, c)
		cursor = c.start
	}
	return path
}

// covered is the length of the union of the kids' intervals inside s.
func covered(s span, kids []span) time.Duration {
	iv := append([]span(nil), kids...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].start.Before(iv[j].start) })
	var total time.Duration
	var curS, curE time.Time
	for i, c := range iv {
		st, en := c.start, c.end
		if st.Before(s.start) {
			st = s.start
		}
		if en.After(s.end) {
			en = s.end
		}
		if !en.After(st) {
			continue
		}
		if i == 0 || st.After(curE) {
			if curE.After(curS) {
				total += curE.Sub(curS)
			}
			curS, curE = st, en
			continue
		}
		if en.After(curE) {
			curE = en
		}
	}
	if curE.After(curS) {
		total += curE.Sub(curS)
	}
	return total
}
