package experiments

import (
	"fmt"

	"neu10/internal/cluster"
	"neu10/internal/core"
)

// ClusterResult compares fleet placement policies under tenant churn —
// the §III-C mapper at cluster scale (extension study).
type ClusterResult struct {
	Stats map[core.PlacementPolicy]*cluster.Stats
}

func (r *ClusterResult) Table() string {
	tab := &table{header: []string{"policy", "arrived", "accepted", "acceptance", "mean EU util", "stranded EUs"}}
	for _, pol := range []core.PlacementPolicy{core.GreedyBalance, core.FirstFit, core.WorstFit} {
		st := r.Stats[pol]
		tab.add(pol.String(), fmt.Sprint(st.Arrived), fmt.Sprint(st.Accepted),
			fmt.Sprintf("%.1f%%", st.AcceptanceRate()*100),
			fmt.Sprintf("%.1f%%", st.MeanEUUtil*100), f2(st.MeanStrandedEUs))
	}
	return "Cluster study — vNPU placement policies under tenant churn\n" +
		"(16 cores, allocator-sized requests, identical arrival trace)\n" + tab.String()
}

// ClusterStudy runs the churn comparison at moderate pressure.
func (r *Runner) ClusterStudy() (*ClusterResult, error) {
	cfg := cluster.DefaultConfig()
	cfg.Core = r.opts.Core
	cfg.ArrivalRate = 8
	cfg.Duration = 300
	stats, err := cluster.Compare(cfg)
	if err != nil {
		return nil, err
	}
	return &ClusterResult{Stats: stats}, nil
}
