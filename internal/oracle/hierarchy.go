package oracle

import (
	"fmt"

	"grinch/internal/bitutil"
	"grinch/internal/cache"
	"grinch/internal/gift"
	"grinch/internal/obs"
	"grinch/internal/probe"
)

// HierOracle runs the observation channel through a two-level cache
// hierarchy (cache.Hierarchy) instead of an ideal trace: the victim's
// S-box lookups travel L1→L2→DRAM and the attacker can only flush and
// probe the shared L2. Cache state — in particular the victim's private
// L1 — persists across encryptions, which is exactly what makes the
// inclusion policy decisive (the paper's future-work question):
//
//   - inclusive L2: attacker flushes reach the victim's L1, every
//     encryption re-exposes its first-touch accesses, the attack works;
//   - non-inclusive L2: the victim's L1 keeps serving warm lines, the
//     shared level goes quiet after the first encryption, the attack
//     starves (TestHierarchyDefeatsAttackWhenNonInclusive).
//
// It implements probe.Channel; the trace core supplies the window, the
// victim trace and the counter. The hierarchy decides what survives to
// the probe, so the channel models neither injected noise nor
// Evict+Time.
type HierOracle struct {
	trace[uint64]
	hier  *cache.Hierarchy
	table probe.TableLayout
}

// NewHierarchyChannel builds the channel. The hierarchy's line size must
// equal cfg.LineWords (1 word = 1 byte) so the index→line mapping holds.
// It rejects injected noise and ProbeEvictTime, which it would
// otherwise ignore.
//
//grinch:secret key
func NewHierarchyChannel(key bitutil.Word128, cfg Config, hier *cache.Hierarchy, tableBase uint64) (*HierOracle, error) {
	t, err := newTrace(&gift64Spec, gift.NewCipher64FromWord(key), cfg)
	if err != nil {
		return nil, err
	}
	if err := flushReloadOnly(cfg); err != nil {
		return nil, err
	}
	if cfg.FalsePresence != 0 || cfg.FalseAbsence != 0 {
		return nil, fmt.Errorf("oracle: the hierarchy channel injects no noise (FalsePresence = %v, FalseAbsence = %v)", cfg.FalsePresence, cfg.FalseAbsence)
	}
	if lb := hier.L2.Config().LineBytes; lb != cfg.LineWords {
		return nil, fmt.Errorf("oracle: hierarchy line size %d ≠ LineWords %d", lb, cfg.LineWords)
	}
	return &HierOracle{
		trace: t,
		hier:  hier,
		table: probe.TableLayout{Base: tableBase, EntryBytes: 1, Entries: 16},
	}, nil
}

// Collect runs one victim encryption through the hierarchy with the
// attacker's flush landing between rounds targetRound and targetRound+1
// (or before the encryption when Flush is false), then probes the
// shared L2. Besides the encryption boundaries it emits one
// cache_snapshot of the shared L2 per Collect — the level the attack's
// signal lives in.
func (o *HierOracle) Collect(pt uint64, targetRound int) probe.LineSet {
	o.encryptions++
	if o.events != nil {
		o.events.Emit(obs.Event{Kind: obs.KindEncryptionStart, Enc: o.encryptions, Cipher: o.spec.name, Round: targetRound})
		defer func() {
			snap := probe.CacheSnapshot(o.hier.L2.Stats())
			snap.Enc = o.encryptions
			o.events.Emit(snap)
			o.events.Emit(obs.Event{Kind: obs.KindEncryptionEnd, Enc: o.encryptions})
		}()
	}
	first, last := o.window(targetRound)
	o.states = o.victim.SBoxInputsAppend(o.states[:0], pt, last)

	// Rounds before the flush point warm the hierarchy unobserved.
	for r := 1; r < first; r++ {
		o.victimRound(o.states[r-1])
	}
	// The attacker's flush: only the shared L2 is within reach; the
	// hierarchy decides whether the victim's L1 copies go too.
	for l := 0; l < o.lines; l++ {
		o.hier.AttackerFlushLine(o.table.Base + uint64(l*o.cfg.LineWords))
	}
	// The observation window.
	for r := first; r <= last; r++ {
		o.victimRound(o.states[r-1])
	}
	// Probe the shared level.
	var set probe.LineSet
	for l := 0; l < o.lines; l++ {
		if o.hier.AttackerProbeLine(o.table.Base + uint64(l*o.cfg.LineWords)) {
			set = set.Add(l)
		}
	}
	return set
}

// victimRound issues one round's 16 table lookups through the hierarchy.
//
//grinch:secret state
func (o *HierOracle) victimRound(state uint64) {
	for seg := uint(0); seg < gift.Segments64; seg++ {
		idx := int(bitutil.Nibble(state, seg))
		o.hier.VictimAccess(o.table.EntryAddr(idx))
	}
}

var _ probe.Channel = (*HierOracle)(nil)
