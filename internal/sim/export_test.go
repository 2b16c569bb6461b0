package sim

// BindPath names how the runner's last Bind numbered its set's pages:
// "direct", "bitset" or "hash", or "held" when the renamed tables
// already held an equal set.
func (r *Runner) BindPath() string {
	return [...]string{pathDirect: "direct", pathBitset: "bitset", pathHash: "hash", pathHeld: "held"}[r.e.path]
}
