#pragma once
// Loopback HTTP/1.1 client and a small JSON reader, enough to drive the
// job server the way a user does: POST a spec, GET a job's status.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct HttpReply {
    int status = 0;  // 0 = no reply (connect/send/receive failed)
    std::string body;
};

// One request on a fresh connection to 127.0.0.1:`port`; the server
// answers with Connection: close, so the reply ends at EOF.
HttpReply http_request(std::uint16_t port, std::string_view method, std::string_view path,
                       std::string_view body = {});

// Parsed JSON value.  Numbers keep their text so doubles printed with
// %.17g convert back bit-exactly.
struct Json {
    enum class Kind { null, boolean, number, string, array, object };
    Kind kind = Kind::null;
    bool boolean = false;
    std::string text;  // number text or string contents
    std::vector<Json> items;
    std::vector<std::pair<std::string, Json>> fields;

    const Json* get(std::string_view key) const;  // object member, or null
    double number() const;                        // 0 unless a number
};

// Throws std::runtime_error on malformed input.
Json parse_json(std::string_view text);

}  // namespace perfbench
