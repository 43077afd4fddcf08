package eval

// Regression tests for findings the vetcert govpoll rule surfaced: the
// parallel merge drained every worker buffer without ever consulting
// the Governor, so a cancellation landing between the parallel phase
// and the merge paid for the full assembly. The merge is now gather,
// which writes the kept entries once at their exact size.

import (
	"context"
	"errors"
	"testing"

	"certsql/internal/guard"
	"certsql/internal/table"
	"certsql/internal/value"
)

func TestGatherCanceledGovernor(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gov := guard.New(ctx, guard.Limits{})
	rows := []table.Row{{value.Int(1)}, {value.Int(2)}, {value.Int(3)}}
	if _, err := gather(gov, rows, 1, []bool{true, false, true}); !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("gather under a canceled governor: err = %v, want guard.ErrCanceled", err)
	}
}

func TestGatherPreservesOrder(t *testing.T) {
	rows := []table.Row{{value.Int(1)}, {value.Int(9)}, {value.Int(2)}, {value.Int(3)}}
	out, err := gather(nil, rows, 1, []bool{true, false, true, true}) // nil Governor: polling is a no-op
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || cap(out) != 3 {
		t.Fatalf("gathered %d rows (capacity %d), want exactly 3", len(out), cap(out))
	}
	for i, want := range []int64{1, 2, 3} {
		if got := out[i][0]; got != value.Int(want) {
			t.Fatalf("row %d = %v, want %d (input order must be preserved)", i, got, want)
		}
	}
	// Tuples of width 2: the entries of a join block.
	ids, err := gather(nil, []int32{0, 1, 2, 3, 4, 5}, 2, []bool{false, true, true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 4 || ids[0] != 2 || ids[1] != 3 || ids[2] != 4 || ids[3] != 5 {
		t.Fatalf("gathered tuples %v, want [2 3 4 5]", ids)
	}
}
