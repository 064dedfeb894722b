package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// pinnedEnv marks a process that pinToOneCPU has already re-executed; its
// value is the CPU.
const pinnedEnv = "GAA_BENCHMARK_CPU"

// cpuMask is a sched_setaffinity mask of 1024 CPUs.
type cpuMask [16]uint64

// pinToOneCPU restricts the process, and so every process it starts, to
// the lowest-numbered CPU it may run on, and executes itself again so
// that the Go runtime sizes itself for one CPU (GOMAXPROCS 1, here and
// in gaa-httpd).
//
// The benchmark measures on one CPU because a second one is not reliably
// there: on the two-vCPU guests this repository is measured on, two busy
// threads each run at full speed for minutes and then at half speed for
// minutes (the host puts both vCPUs on one core; steal time does not
// show it), and every wake-up of an idle vCPU goes through the
// hypervisor. Both made two-CPU runs of the same binary differ by a
// factor of two. One busy CPU beside an idle one keeps its speed.
func pinToOneCPU() error {
	if os.Getenv(pinnedEnv) != "" {
		return nil
	}
	// Affinity is a property of the thread; exec keeps the calling one.
	runtime.LockOSThread()
	var mask cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := -1
	for i := 0; i < len(mask)*64 && cpu < 0; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return fmt.Errorf("sched_getaffinity: empty CPU mask")
	}
	mask = cpuMask{}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	env := append(os.Environ(), fmt.Sprintf("%s=%d", pinnedEnv, cpu))
	return fmt.Errorf("exec %s: %w", self, syscall.Exec(self, os.Args, env))
}
