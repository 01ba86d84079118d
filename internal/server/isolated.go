package server

import (
	"slices"
	"time"
)

// runIsolated executes the batch with a private mediator per query.
// Isolated queries never interact, so a query's Result, its service time
// and whether its timeout cancelled it do not depend on its neighbours:
// each query runs alone, to completion, through runBatch — unlabelled and
// arriving at its mediator's epoch, exactly a serial dqs.Run — in
// submission order (per-query Sinks fire query by query, not interleaved).
// The admission cap and the discipline are then replayed over those known
// service times, which places every admission, wait and completion on the
// server's global timeline; the peaks are read off the resulting intervals.
func (s *Server) runIsolated() ([]Report, Stats, error) {
	n := len(s.queries)
	reports := make([]Report, n)
	stats := Stats{Queries: n}
	for i, q := range s.queries {
		solo := q
		solo.Label, solo.ArriveAt = "", 0
		one := Server{cfg: s.cfg, queries: []Query{solo}, probe: s.probe}
		rep, st, err := one.runBatch()
		if err != nil {
			return nil, stats, q.wrap(err)
		}
		reports[i] = rep[0] // CompletedAt is the service time until the replay places it
		reports[i].Label = q.Label
		stats.Cancelled += st.Cancelled
	}

	arrived, admitted, completed := make([]time.Duration, n), make([]time.Duration, n), make([]time.Duration, n)
	pending := s.arrivalOrder()
	var busy []time.Duration // completion instants of the occupied slots
	for len(pending) > 0 {
		var free time.Duration
		if len(busy) >= s.cfg.cap() {
			// The next admission takes the slot that completes first.
			free = slices.Min(busy)
			m := slices.Index(busy, free)
			busy = slices.Delete(busy, m, m+1)
		}
		pos, at := s.pickAdmission(pending, free)
		qi := pending[pos]
		pending = slices.Delete(pending, pos, pos+1)
		r := &reports[qi]
		r.ArrivedAt = s.queries[qi].ArriveAt
		r.AdmittedAt = at
		r.AdmissionWait = at - r.ArrivedAt
		r.CompletedAt += at
		busy = append(busy, r.CompletedAt)
		arrived[qi], admitted[qi], completed[qi] = r.ArrivedAt, r.AdmittedAt, r.CompletedAt
		stats.TotalAdmissionWait += r.AdmissionWait
		stats.Makespan = max(stats.Makespan, r.CompletedAt)
	}
	stats.PeakQueued = peakOverlap(arrived, admitted)
	stats.PeakActive = peakOverlap(admitted, completed)
	return reports, stats, nil
}

// peakOverlap returns the most intervals [from[i], to[i]) open at one
// instant. It sorts both slices.
func peakOverlap(from, to []time.Duration) int {
	slices.Sort(from)
	slices.Sort(to)
	open, peak := 0, 0
	for i, j := 0, 0; i < len(from); {
		if j < len(to) && to[j] <= from[i] {
			open--
			j++
		} else {
			open++
			i++
			peak = max(peak, open)
		}
	}
	return peak
}
