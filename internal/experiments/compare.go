package experiments

import (
	"fmt"
	"strings"

	"grinch/internal/bitutil"
	"grinch/internal/core"
	"grinch/internal/oracle"
	"grinch/internal/present"
	"grinch/internal/rng"
	"grinch/internal/stats"
)

// CompareRow is one cipher's full-key attack cost under ideal probing.
type CompareRow struct {
	Cipher      string
	KeyBits     int
	RoundPasses int
	Encryptions stats.Summary
	PerKeyBit   float64
	AllCorrect  bool
}

// CompareCiphers measures full-key recovery across the three
// table-based cipher targets under identical channel conditions (probe
// round 1, flush, 1-word lines) — the extension experiment quantifying
// the paper's §II GIFT-vs-PRESENT comparison from the attacker's side,
// plus GIFT-128 (the variant the NIST LWC candidates actually use).
// Every cipher's trials run together on the campaign pool with
// opt.Workers workers; each trial draws its key and attacker seed from
// its cipher's stream before the pool starts, so the rows do not
// depend on the worker count.
func CompareCiphers(opt Options) []CompareRow {
	opt = opt.withDefaults()
	ocfg := oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1}
	acfg := func(r *rng.Source) core.Config { return core.Config{Seed: r.Uint64(), TotalBudget: opt.Budget} }
	ciphers := []struct {
		name    string
		keyBits int
		salt    uint64
		// draw takes one trial's inputs from r and returns its recovery.
		draw func(r *rng.Source) func() recovery
	}{
		{"GIFT-64", 128, 0x64, func(r *rng.Source) func() recovery {
			key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
			cfg := acfg(r)
			return func() recovery {
				res, err := must(core.NewAttacker(must(oracle.New(key, ocfg)), cfg)).RecoverKey()
				return recovery{res.Encryptions, res.RoundsAttacked, err == nil && res.Key == key}
			}
		}},
		{"GIFT-128", 128, 0x128, func(r *rng.Source) func() recovery {
			key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
			cfg := acfg(r)
			return func() recovery {
				res, err := must(core.NewAttacker128(must(oracle.New128(key, ocfg)), cfg)).RecoverKey128()
				return recovery{res.Encryptions, res.RoundsAttacked, err == nil && res.Key == key}
			}
		}},
		{"PRESENT-80", 80, 0x80, func(r *rng.Source) func() recovery {
			var key [10]byte
			lo, hi := r.Uint64(), r.Uint64()
			key[0], key[1] = byte(hi>>8), byte(hi)
			for j := 0; j < 8; j++ {
				key[2+j] = byte(lo >> (56 - 8*uint(j)))
			}
			cfg := acfg(r)
			return func() recovery {
				res, err := must(core.NewAttackerP(must(oracle.NewPresent(present.NewCipher80(key), ocfg)), cfg)).RecoverKey80()
				return recovery{res.Encryptions, res.RoundsAttacked, err == nil && res.Key == key}
			}
		}},
	}
	var trials []func() recovery
	for _, c := range ciphers {
		r := rng.New(opt.Seed ^ c.salt)
		for i := 0; i < opt.Trials; i++ {
			trials = append(trials, c.draw(r))
		}
	}
	outs := runTrials(opt.Workers, trials)
	per := len(outs) / len(ciphers)
	rows := make([]CompareRow, len(ciphers))
	for k, c := range ciphers {
		rows[k] = compareRow(c.name, c.keyBits, outs[k*per:(k+1)*per])
	}
	return rows
}

// recovery is one full-key trial: its encryptions, its round passes
// and whether it recovered the right key.
type recovery struct {
	encryptions uint64
	passes      int
	ok          bool
}

// compareRow summarizes one cipher's trials in trial order: the row
// reports the successful trials' effort and the last success's round
// passes.
func compareRow(cipher string, keyBits int, trials []recovery) CompareRow {
	row := CompareRow{Cipher: cipher, KeyBits: keyBits, AllCorrect: true}
	var efforts []uint64
	for _, t := range trials {
		if !t.ok {
			row.AllCorrect = false
			continue
		}
		row.RoundPasses = t.passes
		efforts = append(efforts, t.encryptions)
	}
	row.Encryptions = stats.SummarizeUint64(efforts)
	row.PerKeyBit = row.Encryptions.Median / float64(row.KeyBits)
	return row
}

// must panics on a set-up error: the comparison's fixed, valid channel
// and attack configurations cannot fail to build.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// ProbeMethodRow compares probing primitives on the same target.
type ProbeMethodRow struct {
	Method      string
	Encryptions stats.Summary
}

// CompareProbeMethods measures the first-round attack through
// Flush+Reload vs the time-driven Evict+Time baseline (paper §III-C:
// "For the GRINCH attack, the Flush+Reload method is better choice").
// Both methods' trials run together on the campaign pool with
// opt.Workers workers.
func CompareProbeMethods(opt Options) []ProbeMethodRow {
	opt = opt.withDefaults()
	methods := []struct {
		name string
		mode oracle.ProbeMode
	}{{"Flush+Reload", oracle.ProbeFlushReload}, {"Evict+Time", oracle.ProbeEvictTime}}
	var trials []func() uint64
	for _, m := range methods {
		r := rng.New(opt.Seed ^ uint64(m.mode) ^ 0xbeef)
		ocfg := oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1, Probe: m.mode}
		for i := 0; i < opt.Trials; i++ {
			key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
			cfg := core.Config{Seed: r.Uint64(), TotalBudget: opt.Budget}
			trials = append(trials, func() uint64 {
				out, err := must(core.NewAttacker(must(oracle.New(key, ocfg)), cfg)).AttackRound(1, nil, nil)
				if err != nil {
					return opt.Budget
				}
				return out.Encryptions
			})
		}
	}
	efforts := runTrials(opt.Workers, trials)
	per := len(efforts) / len(methods)
	rows := make([]ProbeMethodRow, len(methods))
	for k, m := range methods {
		rows[k] = ProbeMethodRow{Method: m.name, Encryptions: stats.SummarizeUint64(efforts[k*per : (k+1)*per])}
	}
	return rows
}

// RenderCompare renders the cross-cipher comparison.
func RenderCompare(rows []CompareRow) string {
	var b strings.Builder
	b.WriteString("Extension — full-key attack cost across table-based ciphers\n")
	b.WriteString("(ideal channel: probe round 1, flush, 1-word lines)\n")
	fmt.Fprintf(&b, "%-12s %8s %12s %14s %12s %s\n",
		"cipher", "key bits", "round passes", "encryptions", "per key bit", "all correct")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %8d %12d %14.0f %12.2f %v\n",
			r.Cipher, r.KeyBits, r.RoundPasses, r.Encryptions.Median, r.PerKeyBit, r.AllCorrect)
	}
	return b.String()
}

// RenderProbeMethods renders the probing-primitive comparison.
func RenderProbeMethods(rows []ProbeMethodRow) string {
	var b strings.Builder
	b.WriteString("Extension — probing primitive cost, first-round attack on GIFT-64\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-14s median %6.0f encryptions\n", r.Method, r.Encryptions.Median)
	}
	if len(rows) == 2 && rows[0].Encryptions.Median > 0 {
		fmt.Fprintf(&b, "  ratio: %.1fx (one line of information per encryption vs sixteen)\n",
			rows[1].Encryptions.Median/rows[0].Encryptions.Median)
	}
	return b.String()
}
