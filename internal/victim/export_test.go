package victim

import "grinch/internal/probe"

// Table returns the S-box layout the victim accesses (test-only).
func (v *Victim) Table() probe.TableLayout { return v.table }
