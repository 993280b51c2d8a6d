package campaignd_test

import (
	"os"
	"testing"

	"grinch/internal/campaign"
	"grinch/internal/campaignd"
)

// benchResults returns n results shaped like the fleet's first-round
// records, for jobs start..start+n-1. The coordinator stores whatever a
// worker reports, so their content need not come from an executor.
func benchResults(start, n int) []campaign.Result {
	out := make([]campaign.Result, n)
	for i := range out {
		job := start + i
		out[i] = campaign.Result{
			Job:         job,
			Point:       campaign.Point{Kind: "first-round", LineWords: 1 + job%2, ProbeRound: 1, Trial: job},
			Seed:        campaign.DeriveSeed(1, job),
			Measurement: campaign.Measurement{Encryptions: uint64(100 + job%40), Correct: true},
			DurationNS:  int64(60_000 + job%1000),
			Worker:      job % 4,
		}
	}
	return out
}

// BenchmarkIngest is the coordinator's ingest rung of the layer
// ladder: one 64-result report, as the fleet workload's workers send
// it, into a journaled shard, per op. A fresh coordinator takes over
// every 256 reports (untimed), so memory and the lease table stay
// bounded at any b.N.
func BenchmarkIngest(b *testing.B) {
	const batch, perServer = 64, 256
	spec := campaign.Spec{Name: "ingest", Kind: "first-round", Seed: 1, Trials: batch * perServer}
	reports := make([][]campaign.Result, perServer)
	for i := range reports {
		reports[i] = benchResults(i*batch, batch)
	}
	var srv *campaignd.Server
	var dir, lease string
	closeServer := func() {
		if srv != nil {
			srv.Close()
			os.RemoveAll(dir)
		}
	}
	defer closeServer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%perServer == 0 {
			b.StopTimer()
			closeServer()
			var err error
			if dir, err = os.MkdirTemp(b.TempDir(), "ingest-"); err != nil {
				b.Fatal(err)
			}
			if srv, err = campaignd.NewServer(campaignd.Options{DataDir: dir}); err != nil {
				b.Fatal(err)
			}
			if _, err := srv.Submit(campaignd.SubmitRequest{Spec: spec, ShardSize: spec.Trials}); err != nil {
				b.Fatal(err)
			}
			lease = srv.Acquire("bench").Lease.ID
			b.StartTimer()
		}
		if err := srv.Ingest(lease, reports[i%perServer]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMerge is the coordinator's merge rung: completing the last
// shard of a fully ingested 20 000-job campaign (the fleet workload's
// grid, in its 1250-job shards), which merges it. Ingestion is
// untimed set-up.
func BenchmarkMerge(b *testing.B) {
	const jobs, shard = 20_000, 1250
	spec := campaign.Spec{Name: "merge", Kind: "first-round", Seed: 1, Trials: jobs}
	results := benchResults(0, jobs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv, err := campaignd.NewServer(campaignd.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := srv.Submit(campaignd.SubmitRequest{Spec: spec, ShardSize: shard}); err != nil {
			b.Fatal(err)
		}
		var last string
		for start := 0; start < jobs; start += shard {
			l := srv.Acquire("bench").Lease
			for k := l.Start; k < l.End; k += 64 {
				if err := srv.Ingest(l.ID, results[k:min(k+64, l.End)]); err != nil {
					b.Fatal(err)
				}
			}
			if l.End < jobs {
				if err := srv.Complete(l.ID); err != nil {
					b.Fatal(err)
				}
			}
			last = l.ID
		}
		b.StartTimer()
		if err := srv.Complete(last); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		srv.Close()
		b.StartTimer()
	}
}
