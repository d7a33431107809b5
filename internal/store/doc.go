// Package store is the message store behind reliable ("hold/retry")
// delivery and durable mailboxes. The paper's future-work section proposes
// exactly this: "improve forwarding service by adding hold/retry on
// delivery ... with messages stored in DB with expiration time" (they
// planned MySQL; an embedded write-ahead log with an in-memory index
// preserves the behaviour — durable enqueue, expiry, replay on restart —
// without an external database).
//
// # Durability
//
// Durability rides internal/wal: every mutation is appended to the
// segmented, checksummed log BEFORE the in-memory index changes, and the
// append error — if any — is returned to the caller, so Put/Delete/
// MarkAttempt cannot report success for a record that never reached the
// log ("accepted" means "on the log": it survives a process crash, and
// a power loss loses at most the open group-commit window, as the wal
// package doc's "Sync policy" section states). Open replays the log on
// start; a torn tail from a crash mid-append is truncated away by the
// WAL layer, never fatal.
//
// The store's WAL record is an op byte ('p' put, 'd' delete, 'a'
// attempt). A put carries a flags byte, the uvarint-length-prefixed ID
// and Destination, Enqueued and (flagged) Expires as fixed64 UnixNano,
// the uvarint attempt count, and the payload as the record remainder;
// delete and attempt carry the ID alone. Change the format only together
// with TestWALStoreCrashConsistency, which chops a log at every byte.
//
// When the log passes CompactAt (default 1 MiB) and twice the live
// state, a mutation compacts it: a snapshot of the live messages becomes
// the new base segment and the retired segments are deleted. Only the
// cut holds the store's lock: it cuts the log (wal.Log.Cut) and lists
// the live messages with their attempt counts. The snapshot is written,
// fsynced and installed on a goroutine of its own while Put, Delete and
// PendingFor go on; Close waits for it. Should the log reach twice the
// size that made the compaction due before the snapshot is in place, a
// mutation waits for it, so the log stays bounded. Expiry
// sweeps never block on append errors — an unlogged expiry delete
// self-heals on the next replay, since expiry is re-derived from
// timestamps.
//
// # Payload ownership
//
// The store owns one copy of every payload, and payloads are immutable
// once stored:
//
//   - Put takes m.Payload over without copying. The caller hands the
//     slice to the store and must not modify it afterwards; it may keep
//     reading it.
//   - Open makes no copy of a payload at all: a recovered payload
//     aliases its record in the WAL's read buffer, with capacity clipped
//     to the record. Only the ID is cloned (a map key that travels to the
//     mailbox and the courier), and destinations are interned, so every
//     record for one box shares one string.
//   - PendingFor returns messages whose Payload shares the stored bytes.
//     They are read-only: a durable mailbox parks exactly these slices
//     after a restart, so a restart copies no payload.
//   - Get returns a private copy, for callers on cold paths (the
//     courier's per-attempt read) that want bytes nobody else sees.
//
// Memory bound: a read buffer (about wal.Config.SegmentSize) stays
// pinned while any message recovered from it is live, and becomes
// collectable once all of them are deleted. Recovery therefore never
// pins more than the log's size at Open, which compaction keeps at most
// about max(CompactAt, 2x the live state). The price is stragglers: a
// few messages left from a drained backlog keep their buffers alive.
// That is accepted; there is no second, copying recovery path for it.
//
// Each destination's messages sit in an insertion-ordered queue whose
// deletes clear a slot and are compacted lazily, so draining a box in
// any order costs amortized O(1) per delete.
//
// # One store per consumer
//
// A reliable.Courier re-attempts every destination in its store on
// Start, so it must never share a store with the mailbox service, whose
// records use the pseudo-destinations "msgbox:meta" and "mbox:<id>":
// core opens StoreDir/courier and StoreDir/msgbox independently.
//
// Fences: TestWALStoreCrashConsistency (acked never resurrected, unacked
// never lost, at any prefix of the log), TestGetReturnsCopy,
// TestRecoverySteadyStateAllocs and TestRecoveryBufferReleased (no
// payload copy on Open; a buffer is freed with its last message), and
// the durable-restart tests of msgbox, msgdisp and core.
package store
