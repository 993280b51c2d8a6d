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
func CompareCiphers(opt Options) []CompareRow {
	opt = opt.withDefaults()
	ocfg := oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1}
	acfg := func(r *rng.Source) core.Config { return core.Config{Seed: r.Uint64(), TotalBudget: opt.Budget} }
	return []CompareRow{
		compareCipher(opt, "GIFT-64", 128, 0x64, func(r *rng.Source) (uint64, int, bool) {
			key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
			a := must(core.NewAttacker(must(oracle.New(key, ocfg)), acfg(r)))
			res, err := a.RecoverKey()
			return res.Encryptions, res.RoundsAttacked, err == nil && res.Key == key
		}),
		compareCipher(opt, "GIFT-128", 128, 0x128, func(r *rng.Source) (uint64, int, bool) {
			key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
			a := must(core.NewAttacker128(must(oracle.New128(key, ocfg)), acfg(r)))
			res, err := a.RecoverKey128()
			return res.Encryptions, res.RoundsAttacked, err == nil && res.Key == key
		}),
		compareCipher(opt, "PRESENT-80", 80, 0x80, func(r *rng.Source) (uint64, int, bool) {
			var key [10]byte
			lo, hi := r.Uint64(), r.Uint64()
			key[0], key[1] = byte(hi>>8), byte(hi)
			for j := 0; j < 8; j++ {
				key[2+j] = byte(lo >> (56 - 8*uint(j)))
			}
			a := must(core.NewAttackerP(must(oracle.NewPresent(present.NewCipher80(key), ocfg)), acfg(r)))
			res, err := a.RecoverKey80()
			return res.Encryptions, res.RoundsAttacked, err == nil && res.Key == key
		}),
	}
}

// compareCipher runs opt.Trials key recoveries of one cipher from its
// own salted seed stream. recoverKey reports a trial's encryptions,
// round passes and whether it recovered the right key; the row
// summarizes the successful trials' effort.
func compareCipher(opt Options, cipher string, keyBits int, salt uint64, recoverKey func(*rng.Source) (uint64, int, bool)) CompareRow {
	r := rng.New(opt.Seed ^ salt)
	row := CompareRow{Cipher: cipher, KeyBits: keyBits, AllCorrect: true}
	var efforts []uint64
	for i := 0; i < opt.Trials; i++ {
		encryptions, passes, ok := recoverKey(r)
		if !ok {
			row.AllCorrect = false
			continue
		}
		row.RoundPasses = passes
		efforts = append(efforts, encryptions)
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
func CompareProbeMethods(opt Options) []ProbeMethodRow {
	opt = opt.withDefaults()
	run := func(mode oracle.ProbeMode) stats.Summary {
		r := rng.New(opt.Seed ^ uint64(mode) ^ 0xbeef)
		var efforts []uint64
		for i := 0; i < opt.Trials; i++ {
			key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
			ch, err := oracle.New(key, oracle.Config{
				ProbeRound: 1, Flush: true, LineWords: 1, Probe: mode,
			})
			if err != nil {
				panic(err)
			}
			a, err := core.NewAttacker(ch, core.Config{Seed: r.Uint64(), TotalBudget: opt.Budget})
			if err != nil {
				panic(err)
			}
			out, err := a.AttackRound(1, nil, nil)
			if err != nil {
				efforts = append(efforts, opt.Budget)
				continue
			}
			efforts = append(efforts, out.Encryptions)
		}
		return stats.SummarizeUint64(efforts)
	}
	return []ProbeMethodRow{
		{Method: "Flush+Reload", Encryptions: run(oracle.ProbeFlushReload)},
		{Method: "Evict+Time", Encryptions: run(oracle.ProbeEvictTime)},
	}
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
