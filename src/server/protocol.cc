#include "server/protocol.h"

#include <cctype>

#include "base/str.h"

namespace omqe::server {

namespace {

/// Pops the next whitespace-delimited token off `rest`.
std::string_view NextToken(std::string_view* rest) {
  size_t start = 0;
  while (start < rest->size() && std::isspace(static_cast<unsigned char>((*rest)[start]))) {
    ++start;
  }
  size_t end = start;
  while (end < rest->size() && !std::isspace(static_cast<unsigned char>((*rest)[end]))) {
    ++end;
  }
  std::string_view token = rest->substr(start, end - start);
  rest->remove_prefix(end);
  return token;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(a[i])) !=
        std::toupper(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool ValidName(std::string_view name) {
  if (name.empty()) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '-') {
      return false;
    }
  }
  return true;
}

}  // namespace

bool ParseU64(std::string_view token, uint64_t* out) {
  if (token.empty()) return false;
  uint64_t v = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
    if (v > (UINT64_MAX - static_cast<uint64_t>(c - '0')) / 10) return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

StatusOr<Request> ParseRequest(std::string_view line) {
  std::string_view rest = Trim(line);
  if (rest.empty() || rest[0] == '#') {
    return Status::InvalidArgument("empty request");
  }
  std::string_view verb = NextToken(&rest);
  Request req;
  if (EqualsIgnoreCase(verb, "PREPARE")) {
    req.verb = Verb::kPrepare;
    std::string_view name = NextToken(&rest);
    if (!ValidName(name)) {
      return Status::InvalidArgument("PREPARE needs a name ([A-Za-z0-9_-]+)");
    }
    req.name = std::string(name);
    req.query_text = std::string(Trim(rest));
    if (req.query_text.empty()) {
      return Status::InvalidArgument("PREPARE needs a query after the name");
    }
    return req;
  }
  if (EqualsIgnoreCase(verb, "OPEN")) {
    req.verb = Verb::kOpen;
    std::string_view name = NextToken(&rest);
    if (!ValidName(name)) {
      return Status::InvalidArgument("OPEN needs a prepared-query name");
    }
    req.name = std::string(name);
    std::string_view mode = NextToken(&rest);
    if (mode.empty() || EqualsIgnoreCase(mode, "partial")) {
      req.complete = false;
    } else if (EqualsIgnoreCase(mode, "complete")) {
      req.complete = true;
    } else {
      return Status::InvalidArgument("OPEN mode must be partial or complete");
    }
    if (!Trim(rest).empty()) {
      return Status::InvalidArgument("OPEN takes at most a name and a mode");
    }
    return req;
  }
  if (EqualsIgnoreCase(verb, "FETCH")) {
    req.verb = Verb::kFetch;
    if (!ParseU64(NextToken(&rest), &req.session) ||
        !ParseU64(NextToken(&rest), &req.count) || req.count == 0) {
      return Status::InvalidArgument("FETCH needs <session> <n> with n >= 1");
    }
    if (!Trim(rest).empty()) {
      return Status::InvalidArgument("FETCH takes exactly <session> <n>");
    }
    return req;
  }
  if (EqualsIgnoreCase(verb, "RESET") || EqualsIgnoreCase(verb, "CLOSE")) {
    req.verb = EqualsIgnoreCase(verb, "RESET") ? Verb::kReset : Verb::kClose;
    if (!ParseU64(NextToken(&rest), &req.session)) {
      return Status::InvalidArgument("expected a decimal session id");
    }
    if (!Trim(rest).empty()) {
      return Status::InvalidArgument("trailing tokens after session id");
    }
    return req;
  }
  if (EqualsIgnoreCase(verb, "EVICT")) {
    req.verb = Verb::kEvict;
    std::string_view name = NextToken(&rest);
    if (!ValidName(name)) {
      return Status::InvalidArgument("EVICT needs a prepared-query name");
    }
    req.name = std::string(name);
    if (!Trim(rest).empty()) {
      return Status::InvalidArgument("EVICT takes exactly one name");
    }
    return req;
  }
  if (EqualsIgnoreCase(verb, "METRICS")) {
    req.verb = Verb::kMetrics;
    std::string_view format = NextToken(&rest);
    if (EqualsIgnoreCase(format, "json")) {
      req.arg = "json";
    } else if (!format.empty()) {
      return Status::InvalidArgument("METRICS takes at most 'json'");
    }
    if (!Trim(rest).empty()) {
      return Status::InvalidArgument("METRICS takes at most 'json'");
    }
    return req;
  }
  if (EqualsIgnoreCase(verb, "TRACE")) {
    req.verb = Verb::kTrace;
    std::string_view sub = NextToken(&rest);
    if (EqualsIgnoreCase(sub, "on")) {
      req.arg = "on";
    } else if (EqualsIgnoreCase(sub, "off")) {
      req.arg = "off";
    } else if (EqualsIgnoreCase(sub, "dump")) {
      req.arg = "dump";
    } else {
      return Status::InvalidArgument("TRACE takes on|off|dump");
    }
    if (!Trim(rest).empty()) {
      return Status::InvalidArgument("TRACE takes exactly one subcommand");
    }
    return req;
  }
  if (EqualsIgnoreCase(verb, "QUIT") || EqualsIgnoreCase(verb, "SHUTDOWN")) {
    req.verb = EqualsIgnoreCase(verb, "QUIT") ? Verb::kQuit : Verb::kShutdown;
    if (!Trim(rest).empty()) {
      return Status::InvalidArgument("verb takes no arguments");
    }
    return req;
  }
  return Status::InvalidArgument("unknown verb '" + std::string(verb) +
                                 "' (PREPARE OPEN FETCH RESET CLOSE EVICT "
                                 "METRICS TRACE QUIT SHUTDOWN)");
}

std::string OkLine(std::string_view detail) {
  std::string out = "OK";
  if (!detail.empty()) {
    out += ' ';
    out += detail;
  }
  return out;
}

std::string_view ErrCodeName(ErrCode code) {
  switch (code) {
    case ErrCode::kBadReq:
      return "BADREQ";
    case ErrCode::kNotFound:
      return "NOTFOUND";
    case ErrCode::kDeadline:
      return "DEADLINE";
    case ErrCode::kOverload:
      return "OVERLOAD";
    case ErrCode::kCancelled:
      return "CANCELLED";
    case ErrCode::kInternal:
      return "INTERNAL";
  }
  return "INTERNAL";
}

bool IsRetryable(ErrCode code) {
  return code == ErrCode::kDeadline || code == ErrCode::kOverload;
}

ErrCode ErrCodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kNotSupported:
      return ErrCode::kBadReq;
    case StatusCode::kNotFound:
      return ErrCode::kNotFound;
    case StatusCode::kDeadlineExceeded:
      return ErrCode::kDeadline;
    case StatusCode::kResourceExhausted:
      return ErrCode::kOverload;
    case StatusCode::kCancelled:
      return ErrCode::kCancelled;
    case StatusCode::kOk:
    case StatusCode::kInternal:
      return ErrCode::kInternal;
  }
  return ErrCode::kInternal;
}

std::string ErrLine(ErrCode code, std::string_view message) {
  std::string out = "ERR ";
  out += ErrCodeName(code);
  if (!message.empty()) {
    out += ' ';
    out += message;
  }
  return out;
}

std::string ErrLineFor(const Status& status) {
  return ErrLine(ErrCodeFor(status), status.message());
}

std::string StatLine(std::string_view json) {
  return "STAT " + std::string(json);
}

std::string MetricLine(std::string_view exposition_line) {
  return "METRIC " + std::string(exposition_line);
}

std::string SpanLine(std::string_view rendered_span) {
  return "SPAN " + std::string(rendered_span);
}

bool IsError(std::string_view line) { return StartsWith(line, "ERR"); }

namespace {

/// Calls `fn` on each line of `response` (without the trailing newline).
template <typename Fn>
void ForEachLine(std::string_view response, Fn&& fn) {
  size_t start = 0;
  while (start < response.size()) {
    size_t nl = response.find('\n', start);
    if (nl == std::string::npos) nl = response.size();
    fn(response.substr(start, nl - start));
    start = nl + 1;
  }
}

}  // namespace

std::vector<std::string> ResponseRows(std::string_view response) {
  std::vector<std::string> rows;
  ForEachLine(response, [&rows](std::string_view line) {
    if (StartsWith(line, "ROW ")) rows.emplace_back(line.substr(4));
  });
  return rows;
}

std::string ResponseTerminator(std::string_view response) {
  std::string last;
  ForEachLine(response, [&last](std::string_view line) {
    if (!line.empty()) last = std::string(line);
  });
  return last;
}

bool FetchDone(std::string_view response) {
  std::string terminator = ResponseTerminator(response);
  return terminator.size() >= 5 &&
         terminator.compare(terminator.size() - 5, 5, " done") == 0;
}

bool ParseOpenSession(std::string_view response, uint64_t* sid) {
  std::string terminator = ResponseTerminator(response);
  constexpr std::string_view kPrefix = "OK OPEN ";
  if (!StartsWith(terminator, kPrefix)) return false;
  return ParseU64(std::string_view(terminator).substr(kPrefix.size()), sid);
}

bool AnyError(std::string_view response) {
  bool any = false;
  ForEachLine(response, [&any](std::string_view line) { any |= IsError(line); });
  return any;
}

bool ParseErrCode(std::string_view line, ErrCode* code) {
  constexpr std::string_view kPrefix = "ERR ";
  if (!StartsWith(line, kPrefix)) return false;
  std::string_view rest = line.substr(kPrefix.size());
  std::string_view token = NextToken(&rest);
  for (ErrCode c : {ErrCode::kBadReq, ErrCode::kNotFound, ErrCode::kDeadline,
                    ErrCode::kOverload, ErrCode::kCancelled,
                    ErrCode::kInternal}) {
    if (token == ErrCodeName(c)) {
      *code = c;
      return true;
    }
  }
  return false;
}

bool AnyRetryableError(std::string_view response) {
  bool retryable = false;
  bool fatal = false;
  ForEachLine(response, [&retryable, &fatal](std::string_view line) {
    if (!IsError(line)) return;
    ErrCode code;
    if (ParseErrCode(line, &code) && IsRetryable(code)) {
      retryable = true;
    } else {
      fatal = true;
    }
  });
  return retryable && !fatal;
}

}  // namespace omqe::server
