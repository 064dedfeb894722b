package execctl

import (
	"context"
	"testing"
	"time"

	"gaaapi/internal/costpin"
)

// TestCost is the package's cost ledger (internal/costpin): what an
// operation that returns before its first tick costs execution
// control, each count in testdata/cost.golden.
func TestCost(t *testing.T) {
	u, ctx := NewUsage(nil), context.Background()
	costpin.Check(t, []costpin.Row{
		{Name: "monitored Run", What: "nothing: the monitor and its timer are pooled, the monitor is the operation's context, and no goroutine or channel is made", Run: func() { Run(ctx, u, emptyOp, alwaysYes, time.Hour) }, NoRace: true},
		{Name: "unmonitored Run", What: "nothing", Run: func() { Run(ctx, u, emptyOp, nil, time.Hour) }, NoRace: true},
	})
}
