package experiments

import (
	"fmt"
	"strings"

	"grinch/internal/bitutil"
	"grinch/internal/core"
	"grinch/internal/rng"
	"grinch/internal/soc"
)

// PlatformEffortRow is the first-round attack cost over a live platform
// model at one clock frequency.
type PlatformEffortRow struct {
	Platform    string
	MHz         uint64
	Encryptions uint64
	DroppedOut  bool
	// WindowRounds is where the platform's first probe lands (Table II),
	// shown alongside to connect the race to the effort.
	WindowRounds int
}

// PlatformEffort runs the first-round attack through the real platform
// channels, connecting Table II to Fig. 3: the single-SoC attacker's
// probe window covers rounds 1..k where k is the Table II round, so its
// effort tracks the Fig. 3 no-flush curve at probing round k, while the
// MPSoC attacker's per-round windows keep the effort near the ideal
// curve. The paper reports the race (Table II) but not the resulting
// effort; this experiment measures it. Every frequency's two attacks
// run on the campaign pool with opt.Workers workers, each from inputs
// drawn before the pool starts.
func PlatformEffort(opt Options, freqs []uint64) []PlatformEffortRow {
	opt = opt.withDefaults()
	if len(freqs) == 0 {
		freqs = []uint64{10, 25, 50}
	}
	r := rng.New(opt.Seed ^ 0x50c)
	var trials []func() PlatformEffortRow
	for _, mhz := range freqs {
		key := bitutil.Word128{Lo: r.Uint64(), Hi: r.Uint64()}
		single := core.Config{Seed: r.Uint64(), TotalBudget: opt.Budget}
		multi := core.Config{Seed: r.Uint64(), TotalBudget: opt.Budget, Threshold: 0.95}
		trials = append(trials,
			func() PlatformEffortRow {
				return measurePlatform("Single-processing SoC", mhz, soc.NewSingleSoC(key, soc.DefaultParams(mhz)), single)
			},
			func() PlatformEffortRow {
				return measurePlatform("Multi-processing SoC", mhz, soc.NewMPSoC(key, soc.DefaultParams(mhz)), multi)
			})
	}
	return runTrials(opt.Workers, trials)
}

func measurePlatform(name string, mhz uint64, p soc.Platform, cfg core.Config) PlatformEffortRow {
	row := PlatformEffortRow{
		Platform:     name,
		MHz:          mhz,
		WindowRounds: p.EarliestProbeRound(),
	}
	ch := &soc.PlatformChannel{P: p, LineBytes: 1}
	out, err := must(core.NewAttacker(ch, cfg)).AttackRound(1, nil, nil)
	if err != nil {
		row.DroppedOut = true
		row.Encryptions = ch.Encryptions()
		return row
	}
	row.Encryptions = out.Encryptions
	return row
}

// RenderPlatformEffort renders the platform-effort table.
func RenderPlatformEffort(rows []PlatformEffortRow) string {
	var b strings.Builder
	b.WriteString("Extension — first-round attack effort over the live platform models\n")
	b.WriteString("(the effort the Table II probing race implies)\n")
	fmt.Fprintf(&b, "%-24s %8s %14s %14s\n", "platform", "clock", "first probe", "encryptions")
	for _, r := range rows {
		eff := humanCount(float64(r.Encryptions))
		if r.DroppedOut {
			eff = ">" + eff
		}
		fmt.Fprintf(&b, "%-24s %5d MHz %14s %14s\n",
			r.Platform, r.MHz, fmt.Sprintf("round %d", r.WindowRounds), eff)
	}
	return b.String()
}
