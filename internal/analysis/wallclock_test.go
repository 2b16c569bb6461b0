package analysis_test

import (
	"testing"

	"mcpaging/internal/analysis"
	"mcpaging/internal/analysis/analysistest"
)

func TestWallclock(t *testing.T) {
	analysistest.Run(t, analysis.Wallclock(), "wallclock")
}
