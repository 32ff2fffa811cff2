package fault

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

func TestFailNthWriter(t *testing.T) {
	var buf bytes.Buffer
	w := &FailNthWriter{W: &buf, N: 3}
	for i := 0; i < 2; i++ {
		if _, err := w.Write([]byte("ab")); err != nil {
			t.Fatalf("write %d failed early: %v", i+1, err)
		}
	}
	if _, err := w.Write([]byte("cd")); err == nil {
		t.Fatal("third write must fail")
	}
	if _, err := w.Write([]byte("ef")); err == nil {
		t.Fatal("writes after the failure must keep failing")
	}
	if buf.String() != "abab" {
		t.Fatalf("underlying writer saw %q, want %q", buf.String(), "abab")
	}
	if w.Calls() != 4 {
		t.Fatalf("calls = %d, want 4", w.Calls())
	}
}

func TestFailNthWriterCustomError(t *testing.T) {
	sentinel := errors.New("disk on fire")
	w := &FailNthWriter{W: &bytes.Buffer{}, N: 1, Err: sentinel}
	if _, err := w.Write([]byte("x")); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

func TestFlipBitInvolution(t *testing.T) {
	buf := []byte{0x00, 0xff, 0x5a}
	orig := append([]byte(nil), buf...)
	for bit := 0; bit < 8*len(buf); bit++ {
		FlipBit(buf, bit)
		if bytes.Equal(buf, orig) {
			t.Fatalf("bit %d flip changed nothing", bit)
		}
		FlipBit(buf, bit)
		if !bytes.Equal(buf, orig) {
			t.Fatalf("double flip of bit %d is not identity", bit)
		}
	}
}

func TestCorrupterDeterministic(t *testing.T) {
	a := make([]byte, 64)
	b := make([]byte, 64)
	ca, cb := NewCorrupter(9), NewCorrupter(9)
	for i := 0; i < 10; i++ {
		if ca.FlipRandomBit(a) != cb.FlipRandomBit(b) {
			t.Fatal("same seed must flip the same bits")
		}
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed corrupters diverged")
	}
}

func TestParseSpec(t *testing.T) {
	in, err := ParseSpec("panic=F5, stall=t3,fail=A2")
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Targets(); len(got) != 3 || got[0] != "A2" || got[1] != "F5" || got[2] != "T3" {
		t.Fatalf("targets = %v", got)
	}
	if d := in.Describe(); !strings.Contains(d, "panic=F5") || !strings.Contains(d, "stall=T3") {
		t.Fatalf("describe = %q", d)
	}
	for _, bad := range []string{"", "explode=T1", "T1", "flaky=T3"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("spec %q must be rejected", bad)
		}
	}
}

func TestInjectorModes(t *testing.T) {
	in, err := ParseSpec("smoke")
	if err != nil {
		t.Fatal(err)
	}
	// Untargeted id: no effect.
	if err := in.Hook(context.Background(), "T1"); err != nil {
		t.Fatalf("untargeted id errored: %v", err)
	}
	// Panic: the smoke target panics.
	defer func() {
		if recover() == nil {
			t.Fatal("panic target must panic")
		}
	}()
	in.Hook(context.Background(), "F5")
}

func TestInjectorFailMode(t *testing.T) {
	in, err := ParseSpec("fail=A2")
	if err != nil {
		t.Fatal(err)
	}
	err = in.Hook(context.Background(), "A2")
	var pe *PermanentError
	if !errors.As(err, &pe) {
		t.Fatalf("fail mode produced %T, want permanent", err)
	}
}

func TestCancelModeParsesAndReports(t *testing.T) {
	in, err := ParseSpec("cancel=r1,stall=r2")
	if err != nil {
		t.Fatal(err)
	}
	if got := in.ModeFor("r1"); got != ModeCancel {
		t.Fatalf("ModeFor(r1) = %q, want cancel", got)
	}
	if got := in.ModeFor("R2"); got != ModeStall {
		t.Fatalf("ModeFor(R2) = %q, want stall", got)
	}
	if got := in.ModeFor("nope"); got != "" {
		t.Fatalf("ModeFor(nope) = %q, want empty", got)
	}
	// The generic Hook treats cancel as a no-op: the serving front end owns
	// the cancellation, the suite runner must not see an error.
	if err := in.Hook(context.Background(), "r1"); err != nil {
		t.Fatalf("Hook on a cancel target errored: %v", err)
	}
}

func TestModeForNilInjector(t *testing.T) {
	var in *Injector
	if got := in.ModeFor("x"); got != "" {
		t.Fatalf("nil injector ModeFor = %q, want empty", got)
	}
}
