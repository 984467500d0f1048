/* CPU time of a whole process in nanoseconds, from the kernel's
   per-process CPU clock.  The scheduler charges this clock only while a
   thread of the process runs, so time the hypervisor takes from a
   virtual CPU (steal) is not in it, unlike wall-clock time. */

#define _GNU_SOURCE
#include <sched.h>
#include <time.h>
#include <sys/types.h>
#include <caml/mlvalues.h>
#include <caml/fail.h>

/* pid 0: this process */
value ricbench_process_cpu_ns(value vpid)
{
  clockid_t clock = CLOCK_PROCESS_CPUTIME_ID;
  struct timespec t;
  if (Int_val(vpid) != 0 && clock_getcpuclockid((pid_t)Int_val(vpid), &clock) != 0)
    caml_failwith("clock_getcpuclockid");
  if (clock_gettime(clock, &t) != 0) caml_failwith("clock_gettime");
  return Val_long((long)t.tv_sec * 1000000000L + t.tv_nsec);
}

/* The CPUs this thread may run on, as a bit mask of the first 62, and
   setting it.  A process forked while the mask is set inherits it. */
value ricbench_affinity(value unit)
{
  cpu_set_t set;
  long mask = 0;
  (void)unit;
  if (sched_getaffinity(0, sizeof set, &set) != 0) caml_failwith("sched_getaffinity");
  for (int cpu = 0; cpu < 62; cpu++)
    if (CPU_ISSET(cpu, &set)) mask |= 1L << cpu;
  return Val_long(mask);
}

value ricbench_set_affinity(value vmask)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu = 0; cpu < 62; cpu++)
    if (Long_val(vmask) & (1L << cpu)) CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) caml_failwith("sched_setaffinity");
  return Val_unit;
}
