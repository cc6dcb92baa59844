package bench

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"globedoc/internal/deploy"
	"globedoc/internal/netsim"
	"globedoc/internal/server"
	"globedoc/internal/workload"
)

// TestFig4ShapeAtScale runs Figure 4 at a reduced but non-zero time scale
// and asserts the paper's qualitative shape: overhead falls as size
// grows, and at the largest size the LAN client has the highest relative
// overhead.
//
// Each point is the median of single-fetch overhead percentages, not
// RunFig4's ratio of means, with the two sizes fetched alternately so
// ambient load lands on both. The sample count follows the noise: a LAN
// fetch is short and its overhead swings from one fetch to the next, so
// it takes 25 samples; the WAN clients' margins are several times their
// noise, where three to five samples are enough.
//
// The scale must leave the LAN's shape a margin. A cold binding's key and
// certificates ride one obj.bind exchange, so a 1 KB fetch's fixed
// security cost is ~7% of it at any scale, while the 1 MB fetch's SHA-1
// (~1.4 ms, not scaled) grows as a share of its fetch as the scaled
// transfer shrinks: at 5% the LAN's two medians tie near 10.6%, at 20%
// they read ~8.2% and ~6.5%, at 30% ~7.3% and ~3.8%, at the paper's
// latencies ~6.8% and ~1.7%.
func TestFig4ShapeAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scaled-latency experiment")
	}
	const small, large = 1 * workload.KB, 1024 * workload.KB
	fetches := map[string]int{netsim.AmsterdamSecondary: 25, netsim.Paris: 5, netsim.Ithaca: 3}
	cfg := Config{
		TimeScale: 0.3, // 30% of real latencies keeps the test under ~10 s
		Sizes:     []int{small, large},
		Clients:   []string{netsim.AmsterdamSecondary, netsim.Paris, netsim.Ithaca},
	}.withDefaults()
	// RunFig4's world: one object per size on the Amsterdam primary.
	w, err := deploy.NewWorld(deploy.Options{TimeScale: cfg.TimeScale})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv-ams", nil, nil, server.Limits{}); err != nil {
		t.Fatal(err)
	}
	pubs := make(map[int]*deploy.Publication)
	for i, size := range cfg.Sizes {
		pubs[size], err = w.Publish(workload.SingleElementDoc(size, uint64(i+1)), deploy.PublishOptions{
			Name: fmt.Sprintf("fig4-%d.bench", size), TTL: 24 * time.Hour, KeyAlgorithm: cfg.KeyAlgorithm,
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	overhead := func(client string, size int) float64 {
		p, err := measureFig4Point(w, pubs[size], client, size, 1)
		if err != nil {
			t.Fatal(err)
		}
		return p.OverheadPercent
	}
	median := func(v []float64) float64 {
		sort.Float64s(v)
		return v[len(v)/2]
	}
	atLarge := make(map[string]float64)
	for _, client := range cfg.Clients {
		var smalls, larges []float64
		for i := 0; i < fetches[client]; i++ {
			smalls = append(smalls, overhead(client, small))
			larges = append(larges, overhead(client, large))
		}
		s, l := median(smalls), median(larges)
		if s <= l {
			t.Errorf("%s: overhead did not fall with size: %.1f%% -> %.1f%%",
				netsim.ClientLabel(client), s, l)
		}
		atLarge[client] = l
	}
	if atLarge[netsim.AmsterdamSecondary] <= atLarge[netsim.Ithaca] {
		t.Errorf("at 1MB, LAN overhead (%.2f%%) should exceed transatlantic (%.2f%%)",
			atLarge[netsim.AmsterdamSecondary], atLarge[netsim.Ithaca])
	}
}
