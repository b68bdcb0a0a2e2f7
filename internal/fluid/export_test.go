package fluid

// SetAlwaysFullSolve switches the reference-solve hook for the oracle
// tests in package fluid_test: while on, every Resolve runs a from-scratch
// Solve. It returns a func that restores the previous setting.
func SetAlwaysFullSolve(on bool) (restore func()) {
	prev := alwaysFullSolve
	alwaysFullSolve = on
	return func() { alwaysFullSolve = prev }
}
