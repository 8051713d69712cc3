package fresh

import (
	"sort"

	"repro/internal/hist"
	"repro/internal/model"
)

// dist summarizes h: Count, Mean and Max are exact, the percentiles
// within 1% (internal/hist).
func dist(h *hist.Histogram) Dist {
	return Dist{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

// Dist summarizes one distribution over the whole run. P50/P95/P99 are
// within 1% of the exact nearest-rank percentile, and exact for values
// below 128 (every version lag a run plausibly reaches); Count, Mean and
// Max are exact.
type Dist struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P95   uint64  `json:"p95"`
	P99   uint64  `json:"p99"`
	Max   uint64  `json:"max"`
}

// SiteFreshness is one site's staleness and read-certificate view.
type SiteFreshness struct {
	Site model.SiteID `json:"site"`
	// Applies counts propagated updates applied here; VersionLag and
	// TimeLagUS are the replica staleness distributions sampled on each
	// apply and by the periodic probe.
	Applies    uint64 `json:"applies"`
	VersionLag Dist   `json:"version_lag"`
	TimeLagUS  Dist   `json:"time_lag_us"`
	// ReadsFresh/ReadsStale count read certificates; ReadVersionLag and
	// ReadTimeLagUS distribute how far behind the primary reads were.
	ReadsFresh     uint64 `json:"reads_fresh"`
	ReadsStale     uint64 `json:"reads_stale"`
	ReadVersionLag Dist   `json:"read_version_lag"`
	ReadTimeLagUS  Dist   `json:"read_time_lag_us"`
}

// Summary is a point-in-time rollup of a Tracker: per-site rows plus
// cluster totals. It is the freshness document every surface shares —
// replbench -json, the bench snapshot's per-protocol block, and the
// FrameFresh telemetry frame.
type Summary struct {
	Sites []SiteFreshness `json:"sites"`

	// Totals across sites.
	Applies        uint64 `json:"applies"`
	VersionLag     Dist   `json:"version_lag"`
	TimeLagUS      Dist   `json:"time_lag_us"`
	ReadsFresh     uint64 `json:"reads_fresh"`
	ReadsStale     uint64 `json:"reads_stale"`
	ReadVersionLag Dist   `json:"read_version_lag"`
	ReadTimeLagUS  Dist   `json:"read_time_lag_us"`
}

// Reads returns the total certificate count.
func (s *Summary) Reads() uint64 {
	if s == nil {
		return 0
	}
	return s.ReadsFresh + s.ReadsStale
}

// StaleReadPct returns the percentage of certified reads that were
// stale; zero when no reads were certified.
func (s *Summary) StaleReadPct() float64 {
	if n := s.Reads(); n > 0 {
		return 100 * float64(s.ReadsStale) / float64(n)
	}
	return 0
}

// Summarize rolls the tracker's current state into a Summary. Sites that
// recorded nothing are omitted; rows come out sorted by site id.
func (t *Tracker) Summarize() *Summary {
	if t == nil {
		return nil
	}
	t.siteMu.RLock()
	sites := append([]*siteStat(nil), t.sites...)
	t.siteMu.RUnlock()

	out := &Summary{}
	var vl, tl, rvl, rtl hist.Histogram
	for id, ss := range sites {
		ss.mu.Lock()
		row := SiteFreshness{
			Site:           model.SiteID(id),
			Applies:        ss.applies,
			VersionLag:     dist(&ss.versionLag),
			TimeLagUS:      dist(&ss.timeLagUS),
			ReadsFresh:     ss.readsFresh,
			ReadsStale:     ss.readsStale,
			ReadVersionLag: dist(&ss.readVerLag),
			ReadTimeLagUS:  dist(&ss.readLagUS),
		}
		vl.Merge(&ss.versionLag)
		tl.Merge(&ss.timeLagUS)
		rvl.Merge(&ss.readVerLag)
		rtl.Merge(&ss.readLagUS)
		ss.mu.Unlock()
		if row.Applies == 0 && row.ReadsFresh == 0 && row.ReadsStale == 0 && row.VersionLag.Count == 0 {
			continue
		}
		out.Sites = append(out.Sites, row)
		out.Applies += row.Applies
		out.ReadsFresh += row.ReadsFresh
		out.ReadsStale += row.ReadsStale
	}
	sort.Slice(out.Sites, func(i, j int) bool { return out.Sites[i].Site < out.Sites[j].Site })
	out.VersionLag = dist(&vl)
	out.TimeLagUS = dist(&tl)
	out.ReadVersionLag = dist(&rvl)
	out.ReadTimeLagUS = dist(&rtl)
	return out
}
