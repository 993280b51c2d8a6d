package noc

// Stats returns a copy of the counters (test-only: nothing outside the
// tests reads them).
func (m *Mesh) Stats() Stats { return m.stats }
