/* Readiness primitives for the live service's event loops.

   Two backends behind one OCaml interface: epoll where the platform
   has it (Linux), poll(2) everywhere else.  Both are exposed, so the
   poll path is testable on Linux too (Evloop.create ~backend).  select(2)
   appears nowhere: its FD_SETSIZE limit (1024) is exactly the
   connection cap this layer removes.

   Encoding shared with the OCaml side (evloop.ml):
     interest / revents bits: 1 = readable, 2 = writable, 4 = error/hup
     epoll_ctl ops:           0 = add,      1 = modify,   2 = delete
   File descriptors are the runtime's plain ints on Unix. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/threads.h>
#include <caml/unixsupport.h>

#include <errno.h>
#include <string.h>
#include <sys/resource.h>

#ifdef __linux__
#define DYNVOTE_HAS_EPOLL 1
#include <sys/epoll.h>
#else
#define DYNVOTE_HAS_EPOLL 0
#endif

#ifndef _WIN32
#include <poll.h>
#endif

CAMLprim value dynvote_has_epoll(value unit)
{
  (void) unit;
  return Val_bool(DYNVOTE_HAS_EPOLL);
}

#if DYNVOTE_HAS_EPOLL

static uint32_t epoll_events_of_bits(int bits)
{
  uint32_t ev = 0;
  if (bits & 1) ev |= EPOLLIN;
  if (bits & 2) ev |= EPOLLOUT;
  return ev;
}

CAMLprim value dynvote_epoll_create(value unit)
{
  int fd;
  (void) unit;
  fd = epoll_create1(EPOLL_CLOEXEC);
  if (fd == -1) caml_uerror("epoll_create1", Nothing);
  return Val_int(fd);
}

CAMLprim value dynvote_epoll_ctl(value vepfd, value vop, value vfd, value vbits)
{
  struct epoll_event ev;
  int op;
  memset(&ev, 0, sizeof ev);
  ev.events = epoll_events_of_bits(Int_val(vbits));
  ev.data.fd = Int_val(vfd);
  switch (Int_val(vop)) {
  case 0: op = EPOLL_CTL_ADD; break;
  case 1: op = EPOLL_CTL_MOD; break;
  default: op = EPOLL_CTL_DEL; break;
  }
  if (epoll_ctl(Int_val(vepfd), op, Int_val(vfd), &ev) == -1)
    caml_uerror("epoll_ctl", Nothing);
  return Val_unit;
}

/* Returns a fresh int array [fd0; bits0; fd1; bits1; ...].  EINTR is
   surfaced as a Unix_error for the OCaml loop to retry with a
   recomputed timeout. */
CAMLprim value dynvote_epoll_wait(value vepfd, value vmax, value vtimeout_ms)
{
  CAMLparam3(vepfd, vmax, vtimeout_ms);
  CAMLlocal1(result);
  enum { CAP = 512 };
  struct epoll_event evs[CAP];
  int max = Int_val(vmax);
  int n, i;
  if (max < 1) max = 1;
  if (max > CAP) max = CAP;
  caml_release_runtime_system();
  n = epoll_wait(Int_val(vepfd), evs, max, Int_val(vtimeout_ms));
  caml_acquire_runtime_system();
  if (n == -1) caml_uerror("epoll_wait", Nothing);
  result = caml_alloc(2 * n, 0);
  for (i = 0; i < n; i++) {
    int bits = 0;
    if (evs[i].events & (EPOLLIN | EPOLLPRI)) bits |= 1;
    if (evs[i].events & EPOLLOUT) bits |= 2;
    if (evs[i].events & (EPOLLERR | EPOLLHUP | EPOLLRDHUP)) bits |= 4;
    Store_field(result, 2 * i, Val_int(evs[i].data.fd));
    Store_field(result, 2 * i + 1, Val_int(bits));
  }
  CAMLreturn(result);
}

#else /* !DYNVOTE_HAS_EPOLL */

CAMLprim value dynvote_epoll_create(value unit)
{
  (void) unit;
  caml_unix_error(ENOSYS, "epoll_create1", Nothing);
  return Val_unit;
}

CAMLprim value dynvote_epoll_ctl(value vepfd, value vop, value vfd, value vbits)
{
  (void) vepfd; (void) vop; (void) vfd; (void) vbits;
  caml_unix_error(ENOSYS, "epoll_ctl", Nothing);
  return Val_unit;
}

CAMLprim value dynvote_epoll_wait(value vepfd, value vmax, value vtimeout_ms)
{
  (void) vepfd; (void) vmax; (void) vtimeout_ms;
  caml_unix_error(ENOSYS, "epoll_wait", Nothing);
  return Val_unit;
}

#endif

/* Best-effort RLIMIT_NOFILE raise: holding ten thousand connections
   needs more descriptors than the usual default soft limit.  Raising
   the hard limit too needs CAP_SYS_RESOURCE; when that fails, settle
   for the existing hard cap.  Returns the resulting soft limit. */
CAMLprim value dynvote_raise_fd_limit(value vtarget)
{
  struct rlimit rl;
  rlim_t target = (rlim_t) Long_val(vtarget);
  if (getrlimit(RLIMIT_NOFILE, &rl) != 0)
    caml_uerror("getrlimit", Nothing);
  if (target > rl.rlim_cur) {
    struct rlimit want = rl;
    want.rlim_cur = target;
    if (want.rlim_max != RLIM_INFINITY && target > want.rlim_max)
      want.rlim_max = target;
    if (setrlimit(RLIMIT_NOFILE, &want) != 0) {
      want = rl;
      want.rlim_cur = rl.rlim_max;
      (void) setrlimit(RLIMIT_NOFILE, &want);
    }
    if (getrlimit(RLIMIT_NOFILE, &rl) != 0)
      caml_uerror("getrlimit", Nothing);
  }
  if (rl.rlim_cur == RLIM_INFINITY || rl.rlim_cur > (rlim_t) Max_long)
    return Val_long(Max_long);
  return Val_long((long) rl.rlim_cur);
}

/* poll(2) over [fd0; interest0; fd1; interest1; ...]; returns a fresh
   int array of revents bits, one per registered descriptor, in the
   same order.  Works for any fd number — no FD_SETSIZE anywhere. */
CAMLprim value dynvote_poll(value vpairs, value vtimeout_ms)
{
  CAMLparam2(vpairs, vtimeout_ms);
  CAMLlocal1(result);
  long len = Wosize_val(vpairs);
  long nfds = len / 2;
  struct pollfd *fds;
  long i;
  int rc;
  fds = caml_stat_alloc(sizeof(struct pollfd) * (nfds ? nfds : 1));
  for (i = 0; i < nfds; i++) {
    int bits = Int_val(Field(vpairs, 2 * i + 1));
    fds[i].fd = Int_val(Field(vpairs, 2 * i));
    fds[i].events = 0;
    if (bits & 1) fds[i].events |= POLLIN;
    if (bits & 2) fds[i].events |= POLLOUT;
    fds[i].revents = 0;
  }
  caml_release_runtime_system();
  rc = poll(fds, (nfds_t) nfds, Int_val(vtimeout_ms));
  caml_acquire_runtime_system();
  if (rc == -1) {
    int err = errno;
    caml_stat_free(fds);
    caml_unix_error(err, "poll", Nothing);
  }
  result = caml_alloc(nfds ? nfds : 0, 0);
  for (i = 0; i < nfds; i++) {
    int bits = 0;
    if (fds[i].revents & (POLLIN | POLLPRI)) bits |= 1;
    if (fds[i].revents & POLLOUT) bits |= 2;
    if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) bits |= 4;
    Store_field(result, i, Val_int(bits));
  }
  caml_stat_free(fds);
  CAMLreturn(result);
}
