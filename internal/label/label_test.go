package label

import (
	"fmt"
	"testing"
)

func arrow(a, b int) string { return fmt.Sprintf("data %d->%d", a, b) }

func TestLabelReads(t *testing.T) {
	for _, c := range []struct {
		l    Label
		want string
	}{
		{New(arrow, 3, 4), "data 3->4"},
		{Fixed("n3.eject"), "n3.eject"},
		{Label{}, ""},
	} {
		if got := c.l.String(); got != c.want {
			t.Errorf("%q, want %q", got, c.want)
		}
	}
}

func TestLabelAllocatesNothing(t *testing.T) {
	var sink Label
	if n := testing.AllocsPerRun(100, func() { sink = New(arrow, 3, 4) }); n != 0 {
		t.Errorf("New: %.0f allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = Fixed("n3.eject") }); n != 0 {
		t.Errorf("Fixed: %.0f allocations, want 0", n)
	}
	_ = sink
}
