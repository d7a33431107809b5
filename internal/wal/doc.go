// Package wal is the durability layer under the message store: a
// segmented, append-only write-ahead log with per-record CRC32C
// checksums and crash recovery. It implements the storage half of the
// paper's future-work item — "hold/retry on delivery ... with messages
// stored in DB with expiration time" — as an embedded log instead of the
// MySQL the authors planned, so a dispatcher restart (or kill -9) loses
// nothing that was synced and corrupts nothing that was not.
//
// # On-disk format
//
// A log is a directory of segment files named <seq>.wal (twelve decimal
// digits, strictly increasing). Each segment starts with a 16-byte
// header — 8-byte magic "WSDWAL01", the segment's sequence number
// (uint32 LE), and a flags byte whose low bit marks a snapshot base —
// followed by length-prefixed records:
//
//	uint32 LE  payload length
//	uint32 LE  CRC32C (Castagnoli) of the payload
//	payload bytes
//
// Records are opaque to the log; the store encodes its own operations
// into them (see package store). The active segment rotates once it
// passes Config.SegmentSize; completed segments are fsynced when sealed.
// Change the framing only together with the chop-at-every-byte sweeps,
// TestTornTailEveryByteOffset here and TestWALStoreCrashConsistency in
// the store.
//
// # Recovery guarantees
//
// Open replays segments in sequence order, starting at the newest
// segment whose header carries the snapshot-base flag (older segments
// are retired state superseded by that snapshot and are deleted). A
// record is applied only if its length is plausible and its checksum
// matches.
//
// Recovery runs on two goroutines. A reader, started by Open and joined
// before Open returns, walks the segments in order: for each piece it
// allocates a fresh buffer, reads it with ReadAt, walks the record
// lengths to the last whole record and verifies every checksum. It
// hands finished pieces over a channel two deep. Open's own goroutine
// runs the replay callback over each piece, in log order, one record at
// a time, so the callback needs no locking of its own. A replay error
// stops the reader, joins it and aborts Open. The reader never truncates:
// the torn-tail cut below happens on Open's goroutine once every record
// before it has been applied. Corruption at the tail of the FINAL segment — the only place
// a crash mid-append can tear — is recovered, not fatal: the segment is
// truncated back to the last whole record and appending resumes there.
// An unreadable header on the final segment (a crash between file
// creation and the header write) drops that segment the same way.
// Corruption anywhere earlier is real damage the log cannot silently
// repair, and Open fails with ErrCorrupt. A compact.tmp left by an
// interrupted compaction is deleted on open. The fault-injection suite
// (faultinject_test.go) pins short-write, failed-sync, failed-rotation,
// failed-snapshot and off-lock window-sync behaviour, and FuzzWALRecover
// checks that arbitrary segment bytes replay exactly their longest valid
// record prefix.
//
// # Compaction
//
// Compaction cuts the log instead of stopping it. Cut, called with the
// caller's own state locked, reserves sequence number N+1 for the
// snapshot, where N is the active segment; the first append after the
// cut rotates to a segment numbered N+2 or later. The caller copies its
// live state, releases its locks and writes the snapshot into
// compact.tmp through the returned Snapshot while appends go on. Install
// fsyncs compact.tmp, renames it to segment N+1 with the base flag,
// syncs the directory and deletes only segments up to N. If no append
// came after the cut, the snapshot becomes the active segment, so an
// idle compaction leaves one file. Compact is the three steps in one
// call. A crash before the rename leaves the old segments and the
// post-cut ones (compact.tmp is deleted on open); a crash after it
// leaves the base, which supersedes everything below it, and the
// post-cut segments after it. Either way no state is lost or doubled. A
// failed snapshot write removes compact.tmp and leaves every segment as
// it was. A failure after the rename poisons the log, because appends
// to a segment the new base supersedes would be dropped on the next
// Open.
//
// # Sync policy
//
// SyncAlways fsyncs before every Append returns: a successful Put is on
// disk. SyncInterval (the default) is group commit — appends mark the
// log dirty and one fsync per Config.SyncEvery window covers every
// append in it, riding a clock.AfterFunc timer so Virtual-clock tests
// exercise the policy deterministically; a crash loses at most the open
// window. The window's fsync runs with the log mutex released, so
// appends do not wait behind the disk; rotation, compaction, Sync and
// Close wait for an fsync in flight. SyncNever leaves flushing to the
// OS. In every mode the write itself reaches the kernel before Append
// returns; the policy only chooses when it reaches the platter.
// Virtual-clock netsim tests running SyncAlways must widen the pump's
// quiescence window (clock.Virtual.SetGrace): a real fsync on a handler
// goroutine reads as idleness and jumps virtual time into request
// timeouts.
//
// A write or sync error both surfaces to the caller (for a window's
// fsync, the next caller) AND poisons the log: every later Append fails
// until the log is reopened, because the tail may hold a partial
// record. ErrTooLarge does not poison.
//
// # Allocation contract
//
// Append encodes through a pooled xmlsoap.GetBuffer scratch: the record
// header and payload are assembled in the scratch and leave in one
// write, so the payload bytes are copied exactly once at the WAL
// boundary and the steady-state append path allocates nothing
// (TestWALAppendSteadyStateAllocs gates it, like the codec paths).
// Callers pass an encode func that APPENDS the payload to the slice it
// is given and returns the extended slice. A Snapshot gathers its
// records in a 1 MiB buffer, flushed before the fsync, so a compaction
// makes one write per MiB rather than one per record.
//
// Replay reads each segment into buffers of about Config.SegmentSize
// that the log never reuses or writes: a sealed segment is one buffer,
// and a snapshot base larger than that is read in record-aligned pieces.
// The bytes handed to a replay callback alias such a buffer, so the
// callback may retain them read-only, without copying, and must never
// modify them. A retained record keeps its whole buffer alive.
package wal
