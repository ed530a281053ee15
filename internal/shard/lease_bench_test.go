package shard

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"flexitrust/internal/obs"
	"flexitrust/internal/types"
)

// BenchmarkSessionGetLeased measures Session.Get on the leased fast path of a
// one-group hub cluster, b.N reads split over the given number of sessions
// (each its own goroutine and client identity, all on one key set). Besides
// ns/op and allocs/op it reports grants/op and fallbacks/op: a healthy run
// shows both near zero — one grant per half lease duration however many
// sessions read, and no read paying a consensus round.
func BenchmarkSessionGetLeased(b *testing.B) {
	for _, sessions := range []int{1, 64} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			cfg := leaseConfig(1)
			cfg.Group.Clients = nil
			for id := 1; id <= sessions; id++ {
				cfg.Group.Clients = append(cfg.Group.Clients, types.ClientID(id))
			}
			c, err := NewCluster(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Stop()
			ctx := context.Background()
			keys := keysOnShard(c.Placement(), 0, 64)
			var sess []*Session
			for id := 1; id <= sessions; id++ {
				sess = append(sess, c.Session(types.ClientID(id)))
			}
			if _, err := sess[0].Get(ctx, keys[0]); err != nil { // the first grant
				b.Fatal(err)
			}
			m := c.obs.Metrics()
			grants0 := m.Counter(obs.MLeaseGrants).Value()
			falls0 := m.Counter(obs.MLeaseFallbacks).Value()

			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for i, s := range sess {
				n := b.N / sessions
				if i < b.N%sessions {
					n++
				}
				wg.Add(1)
				go func(s *Session, n int) {
					defer wg.Done()
					for j := 0; j < n; j++ {
						if _, err := s.Get(ctx, keys[j%len(keys)]); err != nil {
							b.Error(err)
							return
						}
					}
				}(s, n)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(m.Counter(obs.MLeaseGrants).Value()-grants0)/float64(b.N), "grants/op")
			b.ReportMetric(float64(m.Counter(obs.MLeaseFallbacks).Value()-falls0)/float64(b.N), "fallbacks/op")
		})
	}
}
