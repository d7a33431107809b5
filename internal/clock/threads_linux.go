//go:build linux

package clock

import (
	"syscall"
	"unsafe"
)

// threadScan caches what the pump needs to read thread states cheaply: an
// open descriptor on /proc/self/stat (for the thread count) and on every
// thread's stat file, re-listed only when the count changes or a thread
// has gone. It is used only by the pump holding pumpMu, so the state is
// shared and a scan allocates nothing once the thread set is stable.
var threadScan struct {
	dir      int // /proc/self/task; 0 until first use
	self     int // /proc/self/stat
	nthreads int
	tasks    []task
	dirent   [4096]byte
	path     [32]byte
	buf      [1024]byte
}

// task is one cached thread: its id, its name in /proc/self/task and an
// open descriptor on its stat file.
type task struct {
	tid  int
	name [12]byte
	n    int
	stat int
}

// nap gives the CPU to the process's other threads without going through
// the Go scheduler: a Gosched would wake an idle scheduler thread to look
// for work, and that thread would then read as busy to the scan.
func nap() {
	syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
}

// otherThreadsIdle reports whether every OS thread of the process other
// than the caller's is asleep: none is running, queued for a CPU (state
// R — a thread the host preempted mid-parse is still R) or in
// uninterruptible I/O (state D — an fsync). ok is false when /proc cannot
// be read; the caller then falls back to its timing heuristic alone.
//
// The caller must not yield during the call: the scan skips the thread
// it started on as its own, and reports busy if it finished on another.
func otherThreadsIdle() (idle, ok bool) {
	s := &threadScan
	self := syscall.Gettid()
	if s.dir == 0 {
		dir, err := syscall.Open("/proc/self/task", syscall.O_RDONLY|syscall.O_DIRECTORY|syscall.O_CLOEXEC, 0)
		if err != nil {
			return false, false
		}
		st, err := syscall.Open("/proc/self/stat", syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		if err != nil {
			syscall.Close(dir)
			return false, false
		}
		s.dir, s.self = dir, st
	}
	for attempt := 0; attempt < 2; attempt++ {
		if n := threadCount(); n != s.nthreads || attempt > 0 {
			if !relist() {
				return false, false
			}
			s.nthreads = n
		}
		idle, gone := true, false
		for i := range s.tasks {
			t := &s.tasks[i]
			if t.tid == self {
				continue
			}
			busy, ok := threadBusy(t)
			if !ok {
				gone = true
				break
			}
			if busy {
				idle = false
				break
			}
		}
		if !gone {
			// A system call the host stalled can hand the pump's
			// processor away and resume it on another thread; the one
			// skipped as its own may then be running anything.
			return idle && syscall.Gettid() == self, true
		}
	}
	return false, true
}

// threadCount reads the thread count (field 20) from /proc/self/stat.
func threadCount() int {
	s := &threadScan
	n, _ := syscall.Pread(s.self, s.buf[:], 0)
	b := s.buf[:max(n, 0)]
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] == ')' {
			b = b[i+2:]
			break
		}
	}
	// b now starts at field 3 (state); skip to field 20 (num_threads).
	for field := 3; field < 20 && len(b) > 0; b = b[1:] {
		if b[0] == ' ' {
			field++
		}
	}
	count := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		count = count*10 + int(c-'0')
	}
	return count
}

// relist re-reads /proc/self/task, keeping the descriptors of threads
// still present, opening new ones and closing those of threads gone.
func relist() bool {
	s := &threadScan
	old := s.tasks
	s.tasks = make([]task, 0, len(old)+4)
	defer func() {
		for i := range old {
			if old[i].stat >= 0 {
				syscall.Close(old[i].stat)
			}
		}
	}()
	if _, err := syscall.Seek(s.dir, 0, 0); err != nil {
		return false
	}
	for {
		n, err := syscall.ReadDirent(s.dir, s.dirent[:])
		if err != nil {
			return false
		}
		if n <= 0 {
			break
		}
		// linux_dirent64: ino u64, off s64, reclen u16, type u8, name.
		for off := 0; off+19 < n; {
			reclen := int(*(*uint16)(unsafe.Pointer(&s.dirent[off+16])))
			if reclen == 0 {
				break
			}
			name := s.dirent[off+19 : off+reclen]
			off += reclen
			tid, digits := 0, 0
			for _, c := range name {
				if c < '0' || c > '9' {
					break
				}
				tid = tid*10 + int(c-'0')
				digits++
			}
			if digits == 0 || digits > len(task{}.name) {
				continue
			}
			t := task{tid: tid, n: digits, stat: -1}
			copy(t.name[:], name[:digits])
			for i := range old {
				if old[i].tid == tid && old[i].stat >= 0 {
					t.stat, old[i].stat = old[i].stat, -1
					break
				}
			}
			if t.stat < 0 {
				if t.stat = openTask(&t, "/stat\x00"); t.stat < 0 {
					continue
				}
			}
			s.tasks = append(s.tasks, t)
		}
	}
	return true
}

// openTask opens /proc/self/task/<tid><file> (file NUL-terminated),
// returning -1 when the thread has exited.
func openTask(t *task, file string) int {
	s := &threadScan
	p := append(append(s.path[:0], t.name[:t.n]...), file...)
	fd, _, errno := syscall.Syscall6(syscall.SYS_OPENAT, uintptr(s.dir),
		uintptr(unsafe.Pointer(&p[0])), syscall.O_RDONLY|syscall.O_CLOEXEC, 0, 0, 0)
	if errno != 0 {
		return -1
	}
	return int(fd)
}

// threadBusy reports whether one thread is running, queued for a CPU or in
// disk wait; ok is false when the thread has exited. A queued thread that
// the kernel is waking from nanosleep does not count: that is the
// runtime's monitor thread (or a work stealer backing off), never a
// goroutine — goroutines park on futexes.
func threadBusy(t *task) (busy, ok bool) {
	s := &threadScan
	n, err := syscall.Pread(t.stat, s.buf[:], 0)
	if err != nil || n <= 0 {
		return false, false
	}
	// "tid (comm) S ...": the command name may hold spaces and parens,
	// so the state is the letter two bytes after the last ')'.
	var state byte
	for i := n - 1; i >= 0; i-- {
		if s.buf[i] == ')' {
			if i+2 < n {
				state = s.buf[i+2]
			}
			break
		}
	}
	switch state {
	case 'D':
		return true, true
	case 'R':
		// /proc/<tid>/syscall: "running", "-1 ..." (preempted in user
		// space) or the number of the system call it sleeps in.
		fd := openTask(t, "/syscall\x00")
		if fd < 0 {
			return false, false
		}
		n, _ := syscall.Read(fd, s.buf[:])
		syscall.Close(fd)
		nr, digits := 0, 0
		for _, c := range s.buf[:max(n, 0)] {
			if c < '0' || c > '9' {
				break
			}
			nr = nr*10 + int(c-'0')
			digits++
		}
		return digits == 0 || (nr != syscall.SYS_NANOSLEEP && nr != syscall.SYS_CLOCK_NANOSLEEP), true
	}
	return false, true
}
