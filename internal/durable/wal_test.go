package durable

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/pkg/api"
)

func openSealed(t *testing.T, dir string) (*Store, []JobRecord) {
	t.Helper()
	st, recs, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Re-append everything the previous incarnation had, like the server
	// does, so multi-reopen tests don't lose records to compaction.
	for _, r := range recs {
		st.WAL.Append(Record{Kind: KindSubmit, ID: r.ID, Type: string(r.Type),
			Key: r.Key, Payload: r.Payload, Time: r.Created})
		if r.State == api.JobRunning {
			st.WAL.Append(Record{Kind: KindStart, ID: r.ID, Time: r.Started})
		}
		if r.State.Terminal() {
			st.WAL.Append(Record{Kind: KindTerminal, ID: r.ID, State: string(r.State),
				Error: r.Err, Time: r.Finished})
		}
	}
	if err := st.Seal(); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	return st, recs
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, recs := openSealed(t, dir)
	if len(recs) != 0 {
		t.Fatalf("fresh dir replayed %d records", len(recs))
	}
	now := time.Now().Truncate(time.Millisecond)
	steps := []Record{
		{Kind: KindSubmit, ID: "job-1", Type: "subsample", Key: "k1",
			Payload: []byte(`{"type":"subsample"}`), Time: now},
		{Kind: KindStart, ID: "job-1", Time: now.Add(time.Millisecond)},
		{Kind: KindTerminal, ID: "job-1", State: "succeeded", Time: now.Add(2 * time.Millisecond)},
		{Kind: KindSubmit, ID: "job-2", Type: "train", Time: now.Add(3 * time.Millisecond)},
		{Kind: KindStart, ID: "job-2", Time: now.Add(4 * time.Millisecond)},
	}
	for _, r := range steps {
		if err := st.WAL.Append(r); err != nil {
			t.Fatalf("Append(%s %s): %v", r.Kind, r.ID, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2, recs2 := openSealed(t, dir)
	defer st2.Close()
	if len(recs2) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(recs2))
	}
	j1, j2 := recs2[0], recs2[1]
	if j1.ID != "job-1" || j1.State != api.JobSucceeded || j1.Key != "k1" ||
		string(j1.Payload) != `{"type":"subsample"}` || j1.Type != api.JobSubsample {
		t.Fatalf("job-1 folded wrong: %+v", j1)
	}
	if !j1.Created.Equal(now) {
		t.Fatalf("job-1 created %v, want %v", j1.Created, now)
	}
	if j2.ID != "job-2" || j2.State != api.JobRunning {
		t.Fatalf("job-2 folded wrong: %+v", j2)
	}
}

func TestWALTerminalError(t *testing.T) {
	dir := t.TempDir()
	st, _ := openSealed(t, dir)
	st.WAL.Append(Record{Kind: KindSubmit, ID: "job-1", Type: "train", Time: time.Now()})
	st.WAL.Append(Record{Kind: KindTerminal, ID: "job-1", State: "failed",
		Error: api.Errorf(api.CodeInvalidArgument, "bad spec"), Time: time.Now()})
	st.Close()

	st2, recs := openSealed(t, dir)
	defer st2.Close()
	if len(recs) != 1 || recs[0].State != api.JobFailed {
		t.Fatalf("folded %+v", recs)
	}
	if recs[0].Err == nil || recs[0].Err.Code != api.CodeInvalidArgument {
		t.Fatalf("error not preserved: %+v", recs[0].Err)
	}
}

func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	st, _ := openSealed(t, dir)
	st.WAL.Append(Record{Kind: KindSubmit, ID: "job-1", Type: "subsample", Time: time.Now()})
	st.Close()

	// A crash mid-append leaves a torn frame; replay must stop at the
	// last good record instead of erroring.
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x20, 0x00, 0x00, 0x00, 0xde, 0xad}) // length says 32, frame truncated
	f.Close()

	st2, recs := openSealed(t, dir)
	defer st2.Close()
	if len(recs) != 1 || recs[0].ID != "job-1" {
		t.Fatalf("torn tail: replayed %+v", recs)
	}
}

func TestWALCorruptFrameStopsReplay(t *testing.T) {
	dir := t.TempDir()
	st, _ := openSealed(t, dir)
	st.WAL.Append(Record{Kind: KindSubmit, ID: "job-1", Type: "subsample", Time: time.Now()})
	st.WAL.Append(Record{Kind: KindSubmit, ID: "job-2", Type: "subsample", Time: time.Now()})
	st.Close()

	// Flip one byte in the last frame's payload: its CRC no longer
	// matches, so replay keeps job-1 and drops the corrupt tail.
	path := filepath.Join(dir, walName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, recs := openSealed(t, dir)
	defer st2.Close()
	if len(recs) != 1 || recs[0].ID != "job-1" {
		t.Fatalf("corrupt frame: replayed %+v", recs)
	}
}

func TestWALBadMagicRefuses(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName), []byte("NOTAWAL_12345678"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a wal.log with foreign magic")
	}
}

func TestWALAppendAfterCloseTypedUnavailable(t *testing.T) {
	st, _ := openSealed(t, t.TempDir())
	st.Close()
	err := st.WAL.Append(Record{Kind: KindSubmit, ID: "job-1", Time: time.Now()})
	if err == nil {
		t.Fatal("append after close succeeded")
	}
	if api.AsError(err).Code != api.CodeUnavailable {
		t.Fatalf("append after close: code %s, want unavailable", api.AsError(err).Code)
	}
}

func TestWALCrashPointFreezesLog(t *testing.T) {
	dir := t.TempDir()
	st, _ := openSealed(t, dir)
	tripped := false
	st.WAL.SetCrashPoint("before:terminal", func() { tripped = true })

	st.WAL.Append(Record{Kind: KindSubmit, ID: "job-1", Type: "subsample", Time: time.Now()})
	st.WAL.Append(Record{Kind: KindStart, ID: "job-1", Time: time.Now()})
	// The terminal append hits the crash point: dropped, log frozen.
	if err := st.WAL.Append(Record{Kind: KindTerminal, ID: "job-1", State: "succeeded", Time: time.Now()}); err != nil {
		t.Fatalf("frozen append errored: %v", err)
	}
	if !tripped {
		t.Fatal("crash point did not trip")
	}
	// Everything after the trip is silently lost, like a dead process.
	st.WAL.Append(Record{Kind: KindSubmit, ID: "job-2", Type: "subsample", Time: time.Now()})
	st.Close()

	st2, recs := openSealed(t, dir)
	defer st2.Close()
	if len(recs) != 1 {
		t.Fatalf("replayed %d jobs, want 1 (job-2 was post-crash)", len(recs))
	}
	if recs[0].ID != "job-1" || recs[0].State != api.JobRunning {
		t.Fatalf("job-1 should have crashed mid-run: %+v", recs[0])
	}
}

func TestWALCompactionDropsUnreappended(t *testing.T) {
	dir := t.TempDir()
	st, _ := openSealed(t, dir)
	st.WAL.Append(Record{Kind: KindSubmit, ID: "job-1", Type: "subsample", Time: time.Now()})
	st.WAL.Append(Record{Kind: KindTerminal, ID: "job-1", State: "succeeded", Time: time.Now()})
	st.Close()

	// Open and seal WITHOUT re-appending: the expired-job path.
	st2, recs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("replayed %d, want 1", len(recs))
	}
	if err := st2.Seal(); err != nil {
		t.Fatal(err)
	}
	st2.Close()

	_, recs3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs3) != 0 {
		t.Fatalf("compaction kept %d jobs, want 0", len(recs3))
	}
}

// TestWALReservationFold: a reserve record folds to a held job, a later
// submit record under the same ID activates it, and a terminal record
// settles it without clearing the mark.
func TestWALReservationFold(t *testing.T) {
	now := time.Now()
	recs := reduce([]Record{
		{Kind: KindReserve, ID: "job-1", Type: "subsample", Key: "k1", ReservedFor: "job-4@r0", Time: now},
		{Kind: KindReserve, ID: "job-2", Type: "subsample", Key: "k2", ReservedFor: "job-5@r0", Time: now},
		{Kind: KindReserve, ID: "job-3", Type: "subsample", Key: "k3", ReservedFor: "job-6@r0",
			Payload: []byte(`{"reserveFor":"job-6@r0"}`), Time: now},
		{Kind: KindTerminal, ID: "job-2", State: "succeeded", Time: now},
		{Kind: KindSubmit, ID: "job-3", Type: "subsample", Key: "k3", Payload: []byte(`{}`), Time: now},
		{Kind: KindSubmit, ID: "job-2", Type: "subsample", Key: "k2", Time: now},
	})
	if len(recs) != 3 {
		t.Fatalf("folded %d jobs, want 3", len(recs))
	}
	held, settled, activated := recs[0], recs[1], recs[2]
	if held.ReservedFor != "job-4@r0" || held.State != api.JobPending {
		t.Fatalf("reservation folded wrong: %+v", held)
	}
	if settled.ReservedFor != "job-5@r0" || settled.State != api.JobSucceeded {
		t.Fatalf("settled reservation folded wrong (a submit after the terminal must not activate it): %+v", settled)
	}
	if activated.ReservedFor != "" || string(activated.Payload) != `{}` || activated.State != api.JobPending {
		t.Fatalf("activated reservation folded wrong: %+v", activated)
	}
}
