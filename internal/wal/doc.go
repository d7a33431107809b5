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
// matches. Corruption at the tail of the FINAL segment — the only place
// a crash mid-append can tear — is recovered, not fatal: the segment is
// truncated back to the last whole record and appending resumes there.
// An unreadable header on the final segment (a crash between file
// creation and the header write) drops that segment the same way.
// Corruption anywhere earlier is real damage the log cannot silently
// repair, and Open fails with ErrCorrupt. A compact.tmp left by an
// interrupted compaction is deleted on open. The fault-injection suite
// (faultinject_test.go) pins short-write, failed-sync, failed-rotation
// and off-lock window-sync behaviour.
//
// Compaction (Compact) rewrites live state through a snapshot callback
// into a fresh base segment, built under a temporary name, fsynced, and
// atomically renamed before the retired segments are deleted — a crash
// at any point leaves either the old segments or the complete snapshot,
// never a half state.
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
// is given and returns the extended slice. Compact gathers its snapshot
// records in a 1 MiB buffer, flushed before the fsync, so a compaction
// makes one write per MiB rather than one per record while the log is
// locked.
//
// Replay reads each segment into buffers of about Config.SegmentSize
// that the log never reuses or writes: a sealed segment is one buffer,
// and a snapshot base larger than that is read in record-aligned pieces.
// The bytes handed to a replay callback alias such a buffer, so the
// callback may retain them read-only, without copying, and must never
// modify them. A retained record keeps its whole buffer alive.
package wal
