// MPSoC scenario: the attacker owns a dedicated tile on a 3×3 mesh NoC
// and probes the shared cache tile concurrently with the victim — the
// paper's most favourable platform ("the GRINCH was very efficient and
// probed the cache during the first round"). The example shows the
// per-round probe windows and then recovers the full 128-bit key over
// the live platform model.
//
//	go run ./examples/mpsoc_attack
package main

import (
	"fmt"
	"log"

	"grinch/internal/bitutil"
	"grinch/internal/core"
	"grinch/internal/soc"
)

func main() {
	key := bitutil.Word128{Lo: 0x6d70736f63746b31, Hi: 0x6772696e63686b79}
	params := soc.DefaultParams(50)
	node := soc.NewMPSoC(key, params)

	fmt.Println("MPSoC: 3×3 mesh NoC, victim tile (0,0), cache tile (1,1), attacker tile (2,2)")
	fmt.Printf("remote cache access: %v (paper: ≈400 ns)\n", node.RemoteAccessTime())
	fmt.Printf("earliest probed round: %d (paper Table II: 1 at every frequency)\n\n", node.EarliestProbeRound())

	// A dedicated tile means per-round observation windows — show the
	// first few for one encryption.
	sess := node.RunSession(0x0011223344556677)
	fmt.Println("first probe windows of one encryption:")
	for i, w := range sess.Windows {
		if i >= 6 {
			fmt.Printf("  … %d more windows\n\n", len(sess.Windows)-6)
			break
		}
		fmt.Printf("  t=%-10v rounds %2d..%-2d lines %v\n", w.At, w.FirstRound, w.LastRound, w.Set)
	}

	// Full key recovery over the live platform. The platform channel
	// carries real false-absence noise (victim accesses landing in the
	// probe's blind window), so the attack runs with a tolerant
	// elimination threshold instead of strict intersection.
	channel := &soc.PlatformChannel{P: node, LineBytes: params.CacheLineBytes}
	attacker, err := core.NewAttacker(channel, core.Config{
		Seed:        99,
		Threshold:   0.95,
		TotalBudget: 500_000,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := attacker.RecoverKey()
	if err != nil {
		log.Fatalf("attack failed: %v", err)
	}
	kb, rb := key.Bytes(), res.Key.Bytes()
	fmt.Printf("victim key:    %x\n", kb)
	fmt.Printf("recovered key: %x\n", rb)
	fmt.Printf("encryptions:   %d\n", res.Encryptions)
	if res.Key != key {
		log.Fatal("recovery mismatch")
	}
	fmt.Println("full 128-bit key recovered across the NoC.")
}
