package obs

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func sampleEvents() []Event {
	return []Event{
		{Kind: KindEncryptionStart, Enc: 1, Cipher: "GIFT-64"},
		{Kind: KindProbeObservation, Enc: 1, Round: 1, Segment: 0, Lines: 0b1011},
		{Kind: KindCandidateUpdate, Enc: 1, Round: 1, Segment: 0, Lines: 0b1011, Survivors: 3, EntropyBits: EntropyBits(3)},
		{Kind: KindSegmentRecovered, Enc: 9, Round: 1, Segment: 0, Line: 3, Observations: 9},
		{Kind: KindCacheSnapshot, Hits: 5, Misses: 2, Evictions: 1, Flushes: 4, FlushedLines: 3},
		{Kind: KindSimTime, Enc: 1, SimPS: 123456},
	}
}

func TestBufferStampsJobIndex(t *testing.T) {
	b := &Buffer{Job: 7}
	for _, e := range sampleEvents() {
		b.Emit(e)
	}
	if len(b.Events) != len(sampleEvents()) {
		t.Fatalf("buffer holds %d events, want %d", len(b.Events), len(sampleEvents()))
	}
	for i, e := range b.Events {
		if e.Job != 7 {
			t.Fatalf("event %d not stamped with job index: %+v", i, e)
		}
	}
}

func TestWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	in := sampleEvents()
	if err := w.WriteEvents(in); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != len(in) {
		t.Fatalf("writer counted %d events, want %d", w.Count(), len(in))
	}
	out, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\nin  %+v\nout %+v", in, out)
	}
}

func TestWriterBytesAreDeterministic(t *testing.T) {
	render := func() []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteEvents(sampleEvents()); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Fatal("identical event streams serialized to different bytes")
	}
}

// TestNoWallClockKeys pins the determinism contract at the schema
// level: no serialized event may carry a wall-clock-looking key. This
// mirrors campaign's Result.Canonical regression test.
func TestNoWallClockKeys(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteEvents(sampleEvents()); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"duration", "wall", "time_ns", "timestamp", "unix", "worker"} {
		if strings.Contains(buf.String(), key) {
			t.Fatalf("serialized event stream contains wall-clock key %q:\n%s", key, buf.String())
		}
	}
}

func TestReadAllRejectsUnknownFields(t *testing.T) {
	in := strings.NewReader(`{"kind":"sim_time","wall_ns":123}`)
	if _, err := ReadAll(in); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestWriterStickyError(t *testing.T) {
	w := NewWriter(failWriter{})
	// The bufio layer defers the failure until its buffer fills or is
	// flushed; after Flush the error must be sticky and final.
	w.Emit(Event{Kind: KindSimTime})
	if err := w.Flush(); err == nil {
		t.Fatal("flush on a failing writer returned nil")
	}
	w.Emit(Event{Kind: KindSimTime})
	if w.Err() == nil {
		t.Fatal("error not sticky")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("injected") }

func TestEntropyBits(t *testing.T) {
	cases := []struct {
		survivors int
		want      float64
	}{
		{0, 0}, {1, 0}, {2, 1}, {4, 2}, {8, 3}, {16, 4},
	}
	for _, c := range cases {
		if got := EntropyBits(c.survivors); got != c.want {
			t.Fatalf("EntropyBits(%d) = %v, want %v", c.survivors, got, c.want)
		}
	}
	if got := EntropyBits(3); got < 1.58 || got > 1.59 {
		t.Fatalf("EntropyBits(3) = %v, want ~1.585", got)
	}
}

// FuzzReadAll: ReadAll never panics on arbitrary trace bytes, and the
// events it decodes, written back through a Writer, read back equal.
// The seed corpus in testdata/fuzz/FuzzReadAll holds a recorded trace
// prefix, every event kind, and refused streams.
func FuzzReadAll(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteEvents(events); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := ReadAll(&buf)
		if err != nil {
			t.Fatalf("rewritten trace does not read back: %v", err)
		}
		if !reflect.DeepEqual(again, events) {
			t.Fatalf("rewritten trace reads back\n%+v\nwant\n%+v", again, events)
		}
	})
}
