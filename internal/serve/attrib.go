package serve

import (
	"fmt"
	"strings"

	"neu10/internal/obs"
)

// Attribution report assembly: the attribution sections of the report
// and their text tables, built from the sink's ledger (obs.Ledger,
// enabled by ObsConfig.Attrib). The ledger itself is fed by the sink's
// lifecycle methods in obs.go, which also document the segment flow.

// TenantAttrib is one tenant's latency-attribution section: blame
// breakdowns over request cohorts and the top worst-request
// drilldowns. Present only when the run enabled the ledger
// (ObsConfig.Attrib), so legacy JSON output is byte-identical.
type TenantAttrib struct {
	Completed int            `json:"completed"`
	Cohorts   []AttribCohort `json:"cohorts"`
	Worst     []AttribWorst  `json:"worst,omitempty"`
}

// AttribCohort is the mean segment decomposition over one request
// cohort: "all", or the tail cohorts — the requests making up the
// p99 of end-to-end latency, TTFT, or TPOT. Segments are mean
// per-request milliseconds (nonzero only) and sum to MeanMs exactly,
// because each request's segments sum exactly to its lifetime.
type AttribCohort struct {
	Cohort   string             `json:"cohort"`
	Count    int                `json:"count"`
	MeanMs   float64            `json:"mean_ms"`
	Segments map[string]float64 `json:"segments_ms"`
}

// AttribWorst is one worst-request drilldown: where the slowest
// completions actually spent their time.
type AttribWorst struct {
	Req          int64   `json:"req"`
	E2EMs        float64 `json:"e2e_ms"`
	TTFTMs       float64 `json:"ttft_ms,omitempty"`
	Dominant     string  `json:"dominant"`
	DominantMs   float64 `json:"dominant_ms"`
	DominantFrac float64 `json:"dominant_frac"`
}

// CycleLedgerReport is the fleet cycle ledger: every replica-cycle
// between spawn and retire attributed to one bucket, Σ BucketsMs ==
// CapacityMs (the integrated capacity) by conservation.
type CycleLedgerReport struct {
	Replicas   int                `json:"replicas"`
	CapacityMs float64            `json:"capacity_ms"`
	BucketsMs  map[string]float64 `json:"buckets_ms"`
	Violations int                `json:"violations,omitempty"`
	OpenReqs   int                `json:"open_reqs,omitempty"`
	Drops      int                `json:"drops,omitempty"`
}

// attribFinish seals the ledger at end-of-run and assembles the
// attribution sections of the report. No-op without a ledger.
func (o *obsState) attribFinish(rep *Report, end float64) {
	led := o.led
	if led == nil {
		return
	}
	led.FinishReps(end)
	rep.Ledger = led
	ms := func(cycles float64) float64 { return cycles / o.freqHz * 1e3 }
	recs := led.Completed()
	for i := range rep.Tenants {
		tr := &rep.Tenants[i]
		var own []*obs.ReqRecord
		for _, r := range recs {
			if r.Proc == tr.Name {
				own = append(own, r)
			}
		}
		ta := &TenantAttrib{Completed: len(own)}
		ta.Cohorts = append(ta.Cohorts, attribCohort("all", own, ms))
		if c, ok := tailCohort("p99_e2e", own, (*obs.ReqRecord).E2E, ms); ok {
			ta.Cohorts = append(ta.Cohorts, c)
		}
		if c, ok := tailCohort("p99_ttft", own, (*obs.ReqRecord).TTFT, ms); ok {
			ta.Cohorts = append(ta.Cohorts, c)
		}
		if c, ok := tailCohort("p99_tpot", own, (*obs.ReqRecord).TPOT, ms); ok {
			ta.Cohorts = append(ta.Cohorts, c)
		}
		var worst [5]*obs.ReqRecord
		for _, r := range worstFirst(own, worst[:0]) {
			dom := r.Dominant()
			w := AttribWorst{
				Req:        r.ID,
				E2EMs:      ms(r.E2E()),
				TTFTMs:     ms(r.TTFT()),
				Dominant:   dom.String(),
				DominantMs: ms(r.Seg[dom]),
			}
			if e := r.E2E(); e > 0 {
				w.DominantFrac = r.Seg[dom] / e
			}
			ta.Worst = append(ta.Worst, w)
		}
		tr.Attrib = ta
	}
	reps := led.Replicas()
	cl := &CycleLedgerReport{
		Replicas:   len(reps),
		BucketsMs:  map[string]float64{},
		Violations: led.Violations(),
		OpenReqs:   led.Open(),
		Drops:      led.Drops(),
	}
	var capacity float64
	for _, r := range reps {
		capacity += r.Lifetime()
		for b, v := range r.Buckets {
			if v > 0 {
				cl.BucketsMs[obs.Bucket(b).String()] += ms(v)
			}
		}
	}
	cl.CapacityMs = ms(capacity)
	rep.CycleLedger = cl
}

// attribCohort folds a record set into its mean segment decomposition.
func attribCohort(name string, recs []*obs.ReqRecord, ms func(float64) float64) AttribCohort {
	c := AttribCohort{Cohort: name, Count: len(recs), Segments: map[string]float64{}}
	if len(recs) == 0 {
		return c
	}
	var e2e float64
	var seg [obs.NumSegments]float64
	for _, r := range recs {
		e2e += r.E2E()
		for i, v := range r.Seg {
			seg[i] += v
		}
	}
	n := float64(len(recs))
	c.MeanMs = ms(e2e / n)
	for i, v := range seg {
		if v > 0 {
			c.Segments[obs.Segment(i).String()] = ms(v / n)
		}
	}
	return c
}

// worstFirst returns the cap(dst) records of recs with the longest
// end-to-end latency, longest first and ties by ascending ID, in one
// pass that insertion-sorts each record into dst. IDs are unique within
// a tenant, so the order is total and equals a full sort's prefix.
func worstFirst(recs, dst []*obs.ReqRecord) []*obs.ReqRecord {
	worse := func(a, b *obs.ReqRecord) bool {
		if a.E2E() != b.E2E() {
			return a.E2E() > b.E2E()
		}
		return a.ID < b.ID
	}
	for _, r := range recs {
		switch {
		case len(dst) < cap(dst):
			dst = append(dst, r)
		case worse(r, dst[len(dst)-1]):
			dst[len(dst)-1] = r
		default:
			continue
		}
		for j := len(dst) - 1; j > 0 && worse(dst[j], dst[j-1]); j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}

// tailCohort selects the records making up the p99 tail of the given
// metric — everything at or above the p99 threshold over records where
// the metric is defined (> 0) — and folds them. ok=false when no
// record defines the metric.
func tailCohort(name string, recs []*obs.ReqRecord, metric func(*obs.ReqRecord) float64, ms func(float64) float64) (AttribCohort, bool) {
	var vals []float64
	var pool []*obs.ReqRecord
	for _, r := range recs {
		if v := metric(r); v > 0 {
			pool = append(pool, r)
			vals = append(vals, v)
		}
	}
	if len(pool) == 0 {
		return AttribCohort{}, false
	}
	idx := (len(vals)*99+99)/100 - 1 // ceil(0.99·n) − 1
	if idx < 0 {
		idx = 0
	}
	thr := kthSmallest(vals, idx)
	var cohort []*obs.ReqRecord
	for _, r := range pool {
		if metric(r) >= thr {
			cohort = append(cohort, r)
		}
	}
	return attribCohort(name, cohort, ms), true
}

// kthSmallest returns the value sort.Float64s would put at vals[k],
// reordering vals: Hoare's quickselect, O(len(vals)) expected. vals
// holds no NaN.
func kthSmallest(vals []float64, k int) float64 {
	lo, hi := 0, len(vals)-1
	for lo < hi {
		p := vals[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for vals[i] < p {
				i++
			}
			for vals[j] > p {
				j--
			}
			if i <= j {
				vals[i], vals[j] = vals[j], vals[i]
				i, j = i+1, j-1
			}
		}
		// vals[lo..j] ≤ p ≤ vals[i..hi], and everything between is p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return vals[k]
		}
	}
	return vals[k]
}

// AttribTable renders the attribution sections as plain-text tables:
// per-tenant cohort blame breakdowns (one column per segment observed
// anywhere in the run, taxonomy order), the worst-request drilldowns,
// and the fleet cycle-ledger line. Empty without a ledger, so legacy
// table output is byte-identical.
func (rep *Report) AttribTable() string {
	if rep.Ledger == nil {
		return ""
	}
	var sb strings.Builder
	var present [obs.NumSegments]bool
	type cohortRow struct {
		tenant string
		c      AttribCohort
	}
	var rows []cohortRow
	for _, t := range rep.Tenants {
		if t.Attrib == nil {
			continue
		}
		for _, c := range t.Attrib.Cohorts {
			rows = append(rows, cohortRow{t.Name, c})
			for i := 0; i < obs.NumSegments; i++ {
				if c.Segments[obs.Segment(i).String()] != 0 {
					present[i] = true
				}
			}
		}
	}
	if len(rows) > 0 {
		header := []string{"attrib tenant", "cohort", "n", "e2e(ms)"}
		var segs []obs.Segment
		for i := 0; i < obs.NumSegments; i++ {
			if present[i] {
				segs = append(segs, obs.Segment(i))
				header = append(header, obs.Segment(i).String()+"(ms)")
			}
		}
		var cells [][]string
		for _, r := range rows {
			row := []string{r.tenant, r.c.Cohort, fmt.Sprint(r.c.Count), fmt.Sprintf("%.2f", r.c.MeanMs)}
			for _, s := range segs {
				row = append(row, fmt.Sprintf("%.2f", r.c.Segments[s.String()]))
			}
			cells = append(cells, row)
		}
		obs.WriteTable(&sb, header, cells)
	}
	var wrows [][]string
	for _, t := range rep.Tenants {
		if t.Attrib == nil {
			continue
		}
		for _, w := range t.Attrib.Worst {
			wrows = append(wrows, []string{
				t.Name, fmt.Sprint(w.Req),
				fmt.Sprintf("%.2f", w.E2EMs), fmt.Sprintf("%.2f", w.TTFTMs),
				w.Dominant, fmt.Sprintf("%.2f", w.DominantMs),
				fmt.Sprintf("%.0f%%", w.DominantFrac*100),
			})
		}
	}
	if len(wrows) > 0 {
		obs.WriteTable(&sb, []string{"worst req tenant", "req", "e2e(ms)", "ttft(ms)", "dominant", "dom(ms)", "share"}, wrows)
	}
	if cl := rep.CycleLedger; cl != nil {
		parts := make([]string, 0, obs.NumBuckets)
		for i := 0; i < obs.NumBuckets; i++ {
			name := obs.Bucket(i).String()
			if v := cl.BucketsMs[name]; v != 0 {
				parts = append(parts, fmt.Sprintf("%s %.2f", name, v))
			}
		}
		fmt.Fprintf(&sb, "cycle ledger: %d replicas, %.2f ms capacity = %s; %d violations, %d open, %d drops\n",
			cl.Replicas, cl.CapacityMs, strings.Join(parts, " + "), cl.Violations, cl.OpenReqs, cl.Drops)
	}
	return sb.String()
}
