package oracle

import "grinch/internal/gift"

// Cipher returns the victim cipher of an oracle built with New128
// (test-only).
func (o *Oracle128) Cipher() *gift.Cipher128 {
	c, _ := o.victim.(*gift.Cipher128)
	return c
}
