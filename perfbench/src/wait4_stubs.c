/* wait4(2) for the benchmark: the OCaml Unix library's waitpid does not
   return resource usage, and the peak resident set of each sweep
   process (ru_maxrss) is one of the benchmark's end-to-end metrics. */

#include <errno.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

/* perfbench_wait4 pid -> (exit_code, maxrss_kib); a process killed by
   signal s reports exit code -s. */
CAMLprim value perfbench_wait4(value v_pid)
{
  CAMLparam1(v_pid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  caml_enter_blocking_section();
  do {
    r = wait4(Int_val(v_pid), &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) uerror("wait4", Nothing);
  res = caml_alloc_tuple(2);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : -WTERMSIG(status)));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
