package oracle

import (
	"grinch/internal/bitutil"
	"grinch/internal/gift"
)

// Oracle128 is the ideal probing channel against a GIFT-128 victim,
// with the same window semantics as Oracle. It implements
// core.Channel128.
type Oracle128 struct {
	trace[bitutil.Word128]
	cipher *gift.Cipher128 //grinch:secret
}

// New128 builds an oracle for a GIFT-128 victim holding the given key.
//
//grinch:secret key
func New128(key bitutil.Word128, cfg Config) (*Oracle128, error) {
	c := gift.NewCipher128FromWord(key)
	o, err := New128FromTracer(c, cfg)
	if err != nil {
		return nil, err
	}
	o.cipher = c
	return o, nil
}

// New128FromTracer builds an oracle over any traced GIFT-128 victim.
// It models Flush+Reload only and rejects ProbeEvictTime.
//
//grinch:secret tr
func New128FromTracer(tr Victim[bitutil.Word128], cfg Config) (*Oracle128, error) {
	t, err := newTrace(&gift128Spec, tr, cfg)
	if err != nil {
		return nil, err
	}
	if err := flushReloadOnly(cfg); err != nil {
		return nil, err
	}
	return &Oracle128{trace: t}, nil
}

// Cipher exposes the victim cipher when built with New128.
func (o *Oracle128) Cipher() *gift.Cipher128 { return o.cipher }
