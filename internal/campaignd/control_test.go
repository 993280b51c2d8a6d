package campaignd_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"grinch/internal/campaign"
	"grinch/internal/campaignd"
)

// controlPaths are the control endpoints FuzzControlBody posts to,
// indexed by its selector.
var controlPaths = []string{campaignd.PathCampaigns, campaignd.PathLease, campaignd.PathHeartbeat, campaignd.PathComplete}

// decodesAs reports whether body's first JSON value decodes into the
// request type of path, as the handler's decoder reads it.
func decodesAs(path string, body []byte) bool {
	var v any
	switch path {
	case campaignd.PathCampaigns:
		v = &campaignd.SubmitRequest{}
	case campaignd.PathLease:
		v = &campaignd.LeaseRequest{}
	case campaignd.PathHeartbeat:
		v = &campaignd.HeartbeatRequest{}
	default:
		v = &campaignd.CompleteRequest{}
	}
	return json.NewDecoder(bytes.NewReader(body)).Decode(v) == nil
}

// controlState renders what a refused control request must leave
// alone: every campaign's shard rows (state, holder, done count), the
// lease counters, and every byte under the data directory. Worker
// telemetry is left out: a request's piggybacked delta is applied even
// when the request is refused.
func controlState(t *testing.T, srv *campaignd.Server, dir string) string {
	t.Helper()
	fs := srv.FleetStatus()
	var b bytes.Buffer
	fmt.Fprintf(&b, "leases active=%d issued=%d reissues=%d\n", fs.LeasesActive, fs.LeasesIssued, fs.Reissues)
	for _, c := range fs.Campaigns {
		fmt.Fprintf(&b, "%s %s %s done=%d\n", c.ID, c.Fingerprint, c.State, c.Done)
		for _, sh := range c.Shards {
			fmt.Fprintf(&b, "  %v %s %q done=%d\n", sh.ShardRange, sh.State, sh.Worker, sh.Done)
		}
	}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		fmt.Fprintf(&b, "%s %q\n", path, data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// FuzzControlBody posts arbitrary bytes to the submit, lease, heartbeat
// or complete endpoint (sel picks one) against a coordinator holding
// live lease l000000 on shard [0,4) of an 8-job campaign, job 0
// already ingested. The handler must not panic, a body that does not
// decode must get a 4xx, no body may get a 5xx, and a refused request
// must change no lease, shard state or journal byte. The seed corpus
// in testdata/fuzz/FuzzControlBody holds accepted, refused and
// malformed bodies for each endpoint.
func FuzzControlBody(f *testing.F) {
	spec := campaign.Spec{Name: "fuzz", Kind: "toy", Seed: 11, Trials: 8}
	res := execute(spec)
	clock := newFakeClock() // frozen: no lease expires mid-input
	f.Fuzz(func(t *testing.T, sel uint8, body []byte) {
		path := controlPaths[int(sel)%len(controlPaths)]
		var sub campaignd.SubmitRequest
		if path == campaignd.PathCampaigns && json.NewDecoder(bytes.NewReader(body)).Decode(&sub) == nil && sub.Spec.Validate() == nil {
			size := sub.ShardSize
			if size <= 0 {
				size = campaignd.DefaultShardSize
			}
			// Each input builds an accepted submit's per-shard state
			// (lease slots, latency histograms) from scratch; bound it
			// so an iteration stays fast.
			if sub.Spec.NumJobs()/size > 4096 {
				t.Skip("submit of more than 4096 shards")
			}
		}
		dir := t.TempDir()
		srv, err := campaignd.NewServer(campaignd.Options{DataDir: dir, Now: clock.Now})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if _, err := srv.Submit(campaignd.SubmitRequest{Spec: spec, ShardSize: 4}); err != nil {
			t.Fatal(err)
		}
		l := srv.Acquire("fuzz").Lease
		if err := srv.Ingest(l.ID, res[:1]); err != nil {
			t.Fatal(err)
		}
		before := controlState(t, srv, dir)

		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		reply := bytes.TrimSpace(rec.Body.Bytes())
		if rec.Code >= 500 {
			t.Fatalf("%s answered %d %s", path, rec.Code, reply)
		}
		if !decodesAs(path, body) && rec.Code/100 != 4 {
			t.Fatalf("%s answered %d %s to a body that does not decode", path, rec.Code, reply)
		}
		if rec.Code == http.StatusOK {
			return
		}
		if after := controlState(t, srv, dir); after != before {
			t.Fatalf("refused %s (%d %s) changed the coordinator:\n%s\nwas\n%s", path, rec.Code, reply, after, before)
		}
	})
}
