package sched

// Internal checks the replay-driven acceptance tests (package
// sched_test, which imports internal/replay) reuse.
var (
	ReplayMismatch         = replayMismatch
	CheckMetricsMatchStats = checkMetricsMatchStats
	ChunkCoverage          = chunkCoverage
	RaceEnabled            = raceEnabled
)
