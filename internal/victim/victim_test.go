package victim

import (
	"testing"

	"grinch/internal/bitutil"
	"grinch/internal/gift"
	"grinch/internal/probe"
)

// recordingExecutor captures the victim's access stream without any
// platform timing.
type recordingExecutor struct {
	cycles   uint64
	accesses []uint64
}

func (e *recordingExecutor) Exec(c uint64) { e.cycles += c }
func (e *recordingExecutor) Access(addr uint64) {
	e.accesses = append(e.accesses, addr)
	e.cycles += 1
}

// encrypt steps one whole encryption of pt on ex and returns the
// ciphertext.
func encrypt(v *Victim, ex Executor, pt uint64) uint64 {
	e := v.Start(pt)
	for {
		if ct, done := e.Step(ex); done {
			return ct
		}
	}
}

var testKey = bitutil.Word128{Lo: 0x0123456789abcdef, Hi: 0xfedcba9876543210}

func testVictim() (*Victim, *gift.Cipher64) {
	c := gift.NewCipher64FromWord(testKey)
	table := probe.TableLayout{Base: 0x1000, EntryBytes: 1, Entries: 16}
	return New(c.RoundKeys(), table, DefaultTiming()), c
}

func TestEncryptMatchesCipher(t *testing.T) {
	v, c := testVictim()
	ex := &recordingExecutor{}
	pt := uint64(0xfedcba9876543210)
	if got, want := encrypt(v, ex, pt), c.EncryptBlock(pt); got != want {
		t.Fatalf("victim ciphertext %016x, want %016x", got, want)
	}
}

func TestAccessStreamMatchesTrace(t *testing.T) {
	v, c := testVictim()
	ex := &recordingExecutor{}
	pt := uint64(0x1122334455667788)
	encrypt(v, ex, pt)

	var want []uint64
	c.EncryptTraced(pt, gift.ObserverFunc(func(round, segment int, index uint8) {
		want = append(want, v.Table().EntryAddr(int(index)))
	}))
	if len(ex.accesses) != len(want) {
		t.Fatalf("%d accesses, want %d", len(ex.accesses), len(want))
	}
	for i := range want {
		if ex.accesses[i] != want[i] {
			t.Fatalf("access %d = %#x, want %#x", i, ex.accesses[i], want[i])
		}
	}
}

func TestCycleBudget(t *testing.T) {
	v, _ := testVictim()
	ex := &recordingExecutor{}
	encrypt(v, ex, 0)
	// 28 rounds × (compute + 16×overhead) + 448 unit accesses.
	want := 28*(v.timing.ComputeCyclesPerRound+16*v.timing.LookupOverheadCycles) + 448
	if ex.cycles != want {
		t.Fatalf("cycles = %d, want %d", ex.cycles, want)
	}
}

func TestRoundCyclesCalibration(t *testing.T) {
	v, _ := testVictim()
	// DESIGN.md calibration: ≈1.2–1.35 ms per round at 50 MHz.
	cycles := v.RoundCycles()
	if cycles < 55_000 || cycles > 70_000 {
		t.Fatalf("round budget %d cycles is outside the paper-calibrated band", cycles)
	}
}

func TestProgressTracking(t *testing.T) {
	v, _ := testVictim()
	if v.CurrentRound() != 0 || v.Encryptions() != 0 {
		t.Fatal("fresh victim not idle")
	}
	ex := &recordingExecutor{}
	encrypt(v, ex, 1)
	if v.CurrentRound() != 0 {
		t.Fatal("victim not idle after encryption")
	}
	if v.Encryptions() != 1 {
		t.Fatalf("Encryptions = %d", v.Encryptions())
	}
}

// trackingExecutor asserts the round counter is live during execution.
type trackingExecutor struct {
	v      *Victim
	t      *testing.T
	rounds map[int]bool
}

func (e *trackingExecutor) Exec(uint64) {}
func (e *trackingExecutor) Access(uint64) {
	r := e.v.CurrentRound()
	if r < 1 || r > gift.Rounds64 {
		e.t.Fatalf("CurrentRound = %d during access", r)
	}
	e.rounds[r] = true
}

func TestCurrentRoundDuringEncryption(t *testing.T) {
	v, _ := testVictim()
	ex := &trackingExecutor{v: v, t: t, rounds: map[int]bool{}}
	encrypt(v, ex, 0xabcdef)
	if len(ex.rounds) != gift.Rounds64 {
		t.Fatalf("accesses observed in %d rounds, want %d", len(ex.rounds), gift.Rounds64)
	}
}

// countingExecutor counts executor calls.
type countingExecutor struct{ calls int }

func (e *countingExecutor) Exec(uint64)   { e.calls++ }
func (e *countingExecutor) Access(uint64) { e.calls++ }

// TestStepIssuesOneCall: each step of an encryption issues exactly one
// executor call — 28 rounds of 16 overheads and 16 lookups, then the
// round's compute — and the step after the last issues none and
// completes the encryption.
func TestStepIssuesOneCall(t *testing.T) {
	v, c := testVictim()
	const pt = 0x0123456789abcdef
	e := v.Start(pt)
	ex := &countingExecutor{}
	for steps := 0; ; steps++ {
		before := ex.calls
		ct, done := e.Step(ex)
		if !done {
			if ex.calls != before+1 {
				t.Fatalf("step %d issued %d executor calls, want 1", steps, ex.calls-before)
			}
			continue
		}
		if ex.calls != before || steps != gift.Rounds64*(2*gift.Segments64+1) {
			t.Fatalf("done after %d steps, the last issuing %d calls; want %d steps, the last issuing none",
				steps, ex.calls-before, gift.Rounds64*(2*gift.Segments64+1))
		}
		if want := c.EncryptBlock(pt); ct != want {
			t.Fatalf("ciphertext %016x, want %016x", ct, want)
		}
		return
	}
}

// TestStartAllocatesNothing: a platform runs one encryption per
// session, so starting one must not copy or allocate the round keys.
func TestStartAllocatesNothing(t *testing.T) {
	v, _ := testVictim()
	var e Encryption
	if allocs := testing.AllocsPerRun(100, func() { e = v.Start(0x0123456789abcdef) }); allocs != 0 {
		t.Fatalf("%.1f allocs per Start, want 0", allocs)
	}
	if _, done := e.Step(&countingExecutor{}); done {
		t.Fatal("a started encryption finished in one step")
	}
}
