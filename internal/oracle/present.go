package oracle

import "grinch/internal/probe"

// OracleP is the ideal probing channel against a table-based PRESENT
// victim. PRESENT adds the round key before SubCells, so the signal
// window for round key t starts at round t (not t+1 as in GIFT):
//
//	[t,  t+ProbeRound-1]  with flush
//	[1,  t+ProbeRound-1]  without flush
//
// It implements probe.Channel.
type OracleP struct {
	trace[uint64]
}

// NewPresent builds an oracle over a PRESENT victim (present.Cipher80
// or present.Cipher128). It models Flush+Reload only and rejects
// ProbeEvictTime.
//
//grinch:secret tr
func NewPresent(tr Victim[uint64], cfg Config) (*OracleP, error) {
	t, err := newTrace(&presentSpec, tr, cfg)
	if err != nil {
		return nil, err
	}
	if err := flushReloadOnly(cfg); err != nil {
		return nil, err
	}
	return &OracleP{trace: t}, nil
}

// compile-time interface check
var _ probe.Channel = (*OracleP)(nil)
