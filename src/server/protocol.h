// Line-oriented text protocol for the query-serving subsystem.
//
// Requests, one per line (verbs are case-insensitive; names are
// [A-Za-z0-9_-]+; <sid> is a decimal session id):
//
//   PREPARE <name> <query>        e.g.  PREPARE offices q(x,y) :- HasOffice(x,y)
//   OPEN <name> [partial|complete]
//   FETCH <sid> <n>
//   RESET <sid>
//   CLOSE <sid>
//   EVICT <name>
//   METRICS [json]                full metric registry (Prometheus text, or
//                                 one BENCH-JSON STAT line with "json")
//   TRACE on|off|dump             arm/disarm span tracing; dump retained spans
//   QUIT                          close this connection
//   SHUTDOWN                      stop the server loop
//
// Responses. Every request yields zero or more data lines followed by
// exactly one terminator line:
//
//   OK <detail...>                success terminator
//   ERR <code> <message>          failure terminator (structured; see below)
//   ROW <v1>,<v2>,...             one answer tuple (FETCH data line)
//   STAT <json>                   the metric registry as one line of
//                                 BENCH-format JSON ("METRICS json" data line)
//   METRIC <text>                 one Prometheus exposition line (METRICS
//                                 data line)
//   SPAN <text>                   one trace span (TRACE dump data line)
//
// FETCH's terminator is "OK FETCH <k> more|done": <k> rows were emitted and
// the cursor either has more answers or is exhausted (end of enumeration,
// or the session's row budget was spent).
//
// Error taxonomy. <code> is one of the ErrCode names; clients branch on the
// code, never the free-text message:
//
//   code       retryable  meaning
//   ---------  ---------  -------------------------------------------------
//   BADREQ     no         malformed request: unknown verb, bad arguments,
//                         unparsable query, oversized line; also a PREPARE
//                         refused by the chase-size admission estimate or
//                         the chase fact budget (a resend fails the same way)
//   NOTFOUND   no         no prepared query / session with that name or id
//   DEADLINE   yes        the request's deadline expired before completion
//                         (retry observes the same deadline budget afresh)
//   OVERLOAD   yes        OPEN refused at the session cap (retry after
//                         backoff, once sessions close or idle out)
//   CANCELLED  no         the request was cancelled (e.g. server shutdown
//                         revoked an in-flight PREPARE)
//   INTERNAL   no         invariant failure or injected fault; not retried
//                         because the same input likely fails the same way
//
// Retryable means the failure is about server state at that moment, not
// about the request itself — an identical resend can succeed. The bundled
// client retries DEADLINE/OVERLOAD with exponential backoff + jitter.
//
// This header is transport-agnostic: parsing/serialization only. The server
// loop (server.h) maps request lines to registry/session-manager calls; the
// same grammar runs over TCP, stdio, and the in-process client.
#ifndef OMQE_SERVER_PROTOCOL_H_
#define OMQE_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"

namespace omqe::server {

enum class Verb {
  kPrepare,
  kOpen,
  kFetch,
  kReset,
  kClose,
  kEvict,
  kMetrics,
  kTrace,
  kQuit,
  kShutdown,
};

struct Request {
  Verb verb = Verb::kPrepare;
  std::string name;        // PREPARE / OPEN / EVICT query name
  std::string query_text;  // PREPARE body (everything after the name)
  bool complete = false;   // OPEN mode (default: partial)
  uint64_t session = 0;    // FETCH / RESET / CLOSE
  uint64_t count = 0;      // FETCH row count
  std::string arg;         // METRICS format / TRACE subcommand (lowercased)
};

/// Parses one request line. Leading/trailing whitespace is ignored; empty
/// lines and '#' comments yield InvalidArgument — the transports (TCP
/// connection loop, stdio REPL) skip such lines before dispatch, so only a
/// direct HandleLine/ParseRequest caller ever sees that error.
StatusOr<Request> ParseRequest(std::string_view line);

/// Strict decimal u64: digits only (no sign, no leading/trailing space),
/// non-empty, rejects values past UINT64_MAX instead of wrapping — so
/// `FETCH <sid> 99999999999999999999` is an ERR, never a truncated fetch.
/// Shared by the request parser and the CLI front end (whose strtoul-based
/// parsing silently wrapped out-of-range flag values).
bool ParseU64(std::string_view token, uint64_t* out);

/// Wire error codes (see the taxonomy table above).
enum class ErrCode {
  kBadReq,
  kNotFound,
  kDeadline,
  kOverload,
  kCancelled,
  kInternal,
};

/// The wire name of `code` ("BADREQ", "DEADLINE", ...).
std::string_view ErrCodeName(ErrCode code);

/// True when an identical resend of the failed request can succeed
/// (DEADLINE, OVERLOAD).
bool IsRetryable(ErrCode code);

/// Maps a Status from the registry / session manager / parser onto the wire
/// taxonomy. InvalidArgument, ParseError and NotSupported are the caller's
/// fault (BADREQ); ResourceExhausted means over budget (OVERLOAD; the server
/// answers PREPARE's deterministic budget refusals with BADREQ instead);
/// everything unclassified degrades to INTERNAL.
ErrCode ErrCodeFor(const Status& status);

/// Response builders (each returns a single line WITHOUT the trailing \n).
std::string OkLine(std::string_view detail);
std::string ErrLine(ErrCode code, std::string_view message);
/// ErrLine with the code derived from `status` via ErrCodeFor.
std::string ErrLineFor(const Status& status);
std::string StatLine(std::string_view json);
std::string MetricLine(std::string_view exposition_line);
std::string SpanLine(std::string_view rendered_span);

/// True when `line` reports failure.
bool IsError(std::string_view line);

/// Response-block readers — the single place that understands the wire
/// shape, shared by the protocol client, server_test, and bench_server so
/// a format change never has to chase ad-hoc parsers.
///
/// The ROW payloads of a response block (the text after "ROW ").
std::vector<std::string> ResponseRows(std::string_view response);
/// The last non-empty line of a response block (its terminator; "" if the
/// block is empty).
std::string ResponseTerminator(std::string_view response);
/// True when the block's FETCH terminator reports the cursor done
/// (exhausted or budget-spent).
bool FetchDone(std::string_view response);
/// Parses an "OK OPEN <sid>" terminator; false when not that shape.
bool ParseOpenSession(std::string_view response, uint64_t* sid);
/// True when any line of the block is an ERR terminator.
bool AnyError(std::string_view response);
/// Extracts the code of an "ERR <code> ..." line; false when `line` is not
/// an ERR line or carries an unknown/legacy code (callers should treat such
/// errors as fatal, i.e. non-retryable).
bool ParseErrCode(std::string_view line, ErrCode* code);
/// True when the block contains an ERR terminator whose code is retryable
/// (DEADLINE / OVERLOAD) and no fatal one — the client's retry predicate.
bool AnyRetryableError(std::string_view response);

}  // namespace omqe::server

#endif  // OMQE_SERVER_PROTOCOL_H_
