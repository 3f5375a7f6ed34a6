//go:build !race

// Package testutil holds small helpers shared by test files: the
// race-detector sentinel that lets allocation-regression tests skip under
// -race (instrumentation inserts its own allocations, so AllocsPerRun
// numbers are only meaningful in uninstrumented builds), and an encoder for
// version-1 golden-map seeds, the format readers must now refuse.
package testutil

// RaceEnabled reports whether the binary was built with -race.
const RaceEnabled = false
