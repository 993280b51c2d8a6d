package grinch

// Benchmarks for the extensions beyond the paper's own artifacts:
// GIFT-128 and PRESENT attack targets, the GIFT-COFB AEAD, and the
// Evict+Time (time-driven) probing baseline.

import (
	"testing"

	"grinch/internal/bitutil"
	"grinch/internal/cache"
	"grinch/internal/cofb"
	"grinch/internal/core"
	"grinch/internal/obs/metrics"
	"grinch/internal/oracle"
	"grinch/internal/present"
	"grinch/internal/rng"
)

// BenchmarkExtension_FullRecoveryByCipher measures full-key recovery for
// each table-based target under identical ideal probing, reporting the
// encryption cost (the cross-cipher comparison of EXPERIMENTS.md). One
// counted recovery on each timed loop's first key and seed then
// reports the observations the eliminations folded in, and on GIFT-64
// how the batched pipeline split them.
func BenchmarkExtension_FullRecoveryByCipher(b *testing.B) {
	ocfg := oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1}
	b.Run("GIFT-64", func(b *testing.B) {
		r := rng.New(1)
		var total uint64
		for i := 0; i < b.N; i++ {
			key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
			ch, _ := oracle.New(key, oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1})
			a, _ := core.NewAttacker(ch, core.Config{Seed: r.Uint64()})
			res, err := a.RecoverKey()
			if err != nil || res.Key != key {
				b.Fatal("recovery failed")
			}
			total += res.Encryptions
		}
		b.ReportMetric(float64(total)/float64(b.N), "encryptions/op")
		reportObservations(b, "GIFT-64", func(reg *metrics.Registry) {
			r := rng.New(1)
			ch := newCountingOracle(b, bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}, ocfg)
			a, _ := core.NewAttacker(ch, core.Config{Seed: r.Uint64(), Metrics: reg})
			a.RecoverKey()
			ch.report(b)
		})
	})
	b.Run("GIFT-128", func(b *testing.B) {
		r := rng.New(2)
		var total uint64
		for i := 0; i < b.N; i++ {
			key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
			ch, _ := oracle.New128(key, oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1})
			a, _ := core.NewAttacker128(ch, core.Config{Seed: r.Uint64()})
			res, err := a.RecoverKey128()
			if err != nil || res.Key != key {
				b.Fatal("recovery failed")
			}
			total += res.Encryptions
		}
		b.ReportMetric(float64(total)/float64(b.N), "encryptions/op")
		reportObservations(b, "GIFT-128", func(reg *metrics.Registry) {
			r := rng.New(2)
			ch, _ := oracle.New128(bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}, ocfg)
			a, _ := core.NewAttacker128(ch, core.Config{Seed: r.Uint64(), Metrics: reg})
			a.RecoverKey128()
		})
	})
	b.Run("PRESENT-80", func(b *testing.B) {
		r := rng.New(3)
		var total uint64
		for i := 0; i < b.N; i++ {
			key := present80Key(r)
			c := present.NewCipher80(key)
			ch, _ := oracle.NewPresent(c, oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1})
			a, _ := core.NewAttackerP(ch, core.Config{Seed: r.Uint64()})
			res, err := a.RecoverKey80()
			if err != nil || res.Key != key {
				b.Fatal("recovery failed")
			}
			total += res.Encryptions
		}
		b.ReportMetric(float64(total)/float64(b.N), "encryptions/op")
		reportObservations(b, "PRESENT", func(reg *metrics.Registry) {
			r := rng.New(3)
			ch, _ := oracle.NewPresent(present.NewCipher80(present80Key(r)), ocfg)
			a, _ := core.NewAttackerP(ch, core.Config{Seed: r.Uint64(), Metrics: reg})
			a.RecoverKey80()
		})
	})
}

// present80Key draws an 80-bit PRESENT key from two rng words.
func present80Key(r *rng.Source) [10]byte {
	var key [10]byte
	lo, hi := r.Uint64(), r.Uint64()
	key[0], key[1] = byte(hi>>8), byte(hi)
	for j := 0; j < 8; j++ {
		key[2+j] = byte(lo >> (56 - 8*uint(j)))
	}
	return key
}

// BenchmarkAblation_ProbeChannel compares the access-driven channel
// (Flush+Reload) with the time-driven baseline (Evict+Time) at the
// attack level: same elimination, 16x less information per encryption.
func BenchmarkAblation_ProbeChannel(b *testing.B) {
	for _, mode := range []struct {
		name string
		m    oracle.ProbeMode
	}{{"FlushReload", oracle.ProbeFlushReload}, {"EvictTime", oracle.ProbeEvictTime}} {
		b.Run(mode.name, func(b *testing.B) {
			r := rng.New(4)
			var total uint64
			for i := 0; i < b.N; i++ {
				key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
				ch, _ := oracle.New(key, oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1, Probe: mode.m})
				a, _ := core.NewAttacker(ch, core.Config{Seed: r.Uint64()})
				out, err := a.AttackRound(1, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				total += out.Encryptions
			}
			b.ReportMetric(float64(total)/float64(b.N), "encryptions/op")
		})
	}
}

// BenchmarkCOFB measures the AEAD built on GIFT-128.
func BenchmarkCOFB(b *testing.B) {
	key := [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	a := cofb.New(key)
	var nonce [cofb.NonceSize]byte
	b.Run("Seal64B", func(b *testing.B) {
		pt := make([]byte, 64)
		b.SetBytes(64)
		for i := 0; i < b.N; i++ {
			nonce[0] = byte(i)
			_ = a.Seal(nil, nonce, pt, nil)
		}
	})
	b.Run("Seal1KiB", func(b *testing.B) {
		pt := make([]byte, 1024)
		b.SetBytes(1024)
		for i := 0; i < b.N; i++ {
			nonce[0] = byte(i)
			_ = a.Seal(nil, nonce, pt, nil)
		}
	})
	b.Run("Open64B", func(b *testing.B) {
		pt := make([]byte, 64)
		ct := a.Seal(nil, nonce, pt, nil)
		b.SetBytes(64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.Open(nil, nonce, ct, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtension_AEADKeyRecovery is the flagship extension: full
// key recovery against GIFT-COFB through chosen nonces.
func BenchmarkExtension_AEADKeyRecovery(b *testing.B) {
	r := rng.New(6)
	var total uint64
	for i := 0; i < b.N; i++ {
		key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
		aead := cofb.NewFromWord(key)
		ch, _ := oracle.New128FromTracer(aead, oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1})
		a, _ := core.NewAttacker128(ch, core.Config{Seed: r.Uint64()})
		res, err := a.RecoverKey128()
		if err != nil || res.Key != key {
			b.Fatal("AEAD key recovery failed")
		}
		total += res.Encryptions
	}
	b.ReportMetric(float64(total)/float64(b.N), "sealed_nonces/op")
}

// BenchmarkPresentThroughput compares the comparison cipher's raw speed
// with GIFT's (see BenchmarkAblation_Bitsliced for the GIFT numbers).
func BenchmarkPresentThroughput(b *testing.B) {
	var key [10]byte
	c := present.NewCipher80(key)
	b.Run("PRESENT-80", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = c.EncryptBlock(uint64(i))
		}
	})
}

// BenchmarkExtension_HierarchyAttack measures the attack through a
// two-level hierarchy with an inclusive shared L2 (the paper's
// future-work configuration where the attack still works).
func BenchmarkExtension_HierarchyAttack(b *testing.B) {
	r := rng.New(8)
	var total uint64
	for i := 0; i < b.N; i++ {
		key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
		h, err := cache.NewHierarchy(
			cache.Config{Sets: 16, Ways: 2, LineBytes: 1, HitLatency: 1, MissLatency: 0, FlushLatency: 1},
			cache.PaperConfig(1), true, 100)
		if err != nil {
			b.Fatal(err)
		}
		ch, err := oracle.NewHierarchyChannel(key, oracle.Config{ProbeRound: 1, Flush: true, LineWords: 1}, h, 0x1000)
		if err != nil {
			b.Fatal(err)
		}
		a, err := core.NewAttacker(ch, core.Config{Seed: r.Uint64(), TotalBudget: 100_000})
		if err != nil {
			b.Fatal(err)
		}
		res, err := a.RecoverKey()
		if err != nil || res.Key != key {
			b.Fatal("hierarchy recovery failed")
		}
		total += res.Encryptions
	}
	b.ReportMetric(float64(total)/float64(b.N), "encryptions/op")
}
