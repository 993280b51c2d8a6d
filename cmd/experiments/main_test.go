package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"grinch/internal/experiments"
)

// The quick golden pins the stdout of `experiments -quick all` — every
// table and chart at smoke-run scale, Table II and the platform-effort
// rows included — byte for byte. Regenerate with
//
//	go test ./cmd/experiments -run TestQuickAllGolden -update
//
// and review the diff: a refactor must leave it unchanged.
var update = flag.Bool("update", false, "rewrite testdata/quick_all.golden")

func TestQuickAllGolden(t *testing.T) {
	// The flag defaults of main, with -quick applied.
	opt := experiments.Options{Trials: 3, Budget: 1_000_000, Seed: 2021}
	var out bytes.Buffer
	if err := render(&out, io.Discard, "all", newScale(opt, true, false)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "quick_all.golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("-quick all output differs from %s (rerun with -update and review the diff):\n%s", path, out.Bytes())
	}
}

// TestDocumentedOutput pins experiments_output.txt, the tables the docs
// quote, to what the documented command
//
//	go run ./cmd/experiments -trials 3 -seed 2021 all > experiments_output.txt
//
// prints today. It runs every experiment at full scale, so -short
// skips it.
func TestDocumentedOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale run of every experiment")
	}
	// The flag defaults of main, with -trials 3 -seed 2021.
	opt := experiments.Options{Trials: 3, Budget: 1_000_000, Seed: 2021}
	var out bytes.Buffer
	if err := render(&out, io.Discard, "all", newScale(opt, false, false)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "experiments_output.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("`experiments -trials 3 -seed 2021 all` differs from %s (regenerate it and update the docs that quote it):\n%s", path, out.Bytes())
	}
}

func TestRenderUnknownExperiment(t *testing.T) {
	var out, progress bytes.Buffer
	if err := render(&out, &progress, "bogus", newScale(experiments.Options{}, true, false)); err == nil {
		t.Fatal("render accepted an unknown experiment")
	}
	if out.Len() != 0 || progress.Len() != 0 {
		t.Errorf("unknown experiment wrote %q to stdout and %q to progress", out.String(), progress.String())
	}
}
