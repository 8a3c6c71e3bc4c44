package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestRunThreeDBoundsNearEvents pins the 3D near-field bound at the
// default 20,000 particles, before anything is sampled: under a
// canceled context, radius 11 (243 M events) passes validation and
// stops at the cancellation, while radius 12 (312 M events, over
// maxNearEvents) is rejected with the bound error. Radius 65, whose
// neighborhood spans the whole 64^3 cube, would keep both cores busy
// for minutes with no context check.
func TestRunThreeDBoundsNearEvents(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := ThreeDDefault
	p.Radius = 11
	if _, err := RunThreeD(ctx, p, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("r=11: %v, want the cancellation (within the bound)", err)
	}
	for _, r := range []int{12, 65} {
		p.Radius = r
		_, err := RunThreeD(ctx, p, 1)
		if err == nil || errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "3D near-field events") {
			t.Errorf("r=%d: %v, want the 3D near-field bound error", r, err)
		}
	}
}
