package wwt

// Serving exposes a live engine's current generation to the external
// tests, which drive its PMI doc-set cache directly.
func (le *LiveEngine) Serving() *Engine { return le.cur.Load().eng }
