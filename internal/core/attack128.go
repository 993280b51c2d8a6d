package core

import (
	"grinch/internal/bitutil"
	"grinch/internal/gift"
)

// Channel128 is the GIFT-128 observation channel: probe.Channel's shape
// with a 128-bit plaintext.
type Channel128 = channel[bitutil.Word128]

// gift128 describes GIFT-128 to the engine: 32 segments whose key bits
// sit at index bits 1 and 2, and two round keys (64 key bits each)
// holding the whole master key.
var gift128 = cipherDesc[bitutil.Word128, gift.RoundKey128]{
	name:       "GIFT-128",
	segments:   gift.Segments128,
	keyRounds:  2,
	maxRound:   6,
	target:     func(t, g int) target[bitutil.Word128, gift.RoundKey128] { return target128(t, g) },
	roundKey:   roundKeyFromPairs128,
	hypotheses: true,
	pinShare:   worstPinShare,
}

// Attacker128 drives the GRINCH attack against a GIFT-128 victim.
type Attacker128 struct {
	engine[bitutil.Word128, gift.RoundKey128]
}

// NewAttacker128 builds a GIFT-128 attacker.
func NewAttacker128(ch Channel128, cfg Config) (*Attacker128, error) {
	a := new(Attacker128)
	if err := a.init(&gift128, ch, cfg); err != nil {
		return nil, err
	}
	return a, nil
}

func roundKeyFromPairs128(round int, pairs []uint8) gift.RoundKey128 {
	var rk gift.RoundKey128
	for g, p := range pairs {
		rk.V |= uint32(p&1) << g
		rk.U |= uint32(p>>1&1) << g
	}
	rk.Const = gift.RoundConstants[round-1]
	return rk
}

// KeyResult128 is a completed GIFT-128 key recovery.
type KeyResult128 struct {
	Key            bitutil.Word128
	RoundKeys      [2]gift.RoundKey128
	Encryptions    uint64
	RoundsAttacked int
}

// RecoverKey128 runs the full attack: GIFT-128 consumes all 128 key
// bits in just two rounds (64 per round), so two passes suffice — three
// when wide lines force a disambiguation pass.
func (a *Attacker128) RecoverKey128() (KeyResult128, error) {
	r := a.recoverKey()
	return keyResult128(r), r.err
}

// RecoverKey128Graceful degrades failures into a structured
// PartialResult instead of an error, like Attacker.RecoverKeyGraceful.
// A nil PartialResult means full recovery.
//
//grinchvet:ignore deadexport TestGoldenGraceful pins its PartialResult for GIFT-128
func (a *Attacker128) RecoverKey128Graceful() (KeyResult128, *PartialResult) {
	r := a.recoverKey()
	return keyResult128(r), a.partial(r)
}

func keyResult128(r recovery[gift.RoundKey128]) KeyResult128 {
	if r.err != nil {
		return KeyResult128{}
	}
	res := KeyResult128{Encryptions: r.encryptions, RoundsAttacked: r.passes}
	copy(res.RoundKeys[:], r.rks)
	res.Key = AssembleKey128(res.RoundKeys)
	return res
}

// AssembleKey128 rebuilds the master key from the first two round keys:
// round 1 consumes U = k5‖k4 and V = k1‖k0, round 2 consumes U = k7‖k6
// and V = k3‖k2 (see gift.ExpandKey128).
func AssembleKey128(rks [2]gift.RoundKey128) bitutil.Word128 {
	var key bitutil.Word128
	key = key.SetWord16(0, uint16(rks[0].V))
	key = key.SetWord16(1, uint16(rks[0].V>>16))
	key = key.SetWord16(4, uint16(rks[0].U))
	key = key.SetWord16(5, uint16(rks[0].U>>16))
	key = key.SetWord16(2, uint16(rks[1].V))
	key = key.SetWord16(3, uint16(rks[1].V>>16))
	key = key.SetWord16(6, uint16(rks[1].U))
	key = key.SetWord16(7, uint16(rks[1].U>>16))
	return key
}
