package analysis

// Solves reports how many times the interval fixpoint solved ri's function.
func (ri *RangeInfo) Solves() int { return ri.solves }
