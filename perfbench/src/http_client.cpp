#include "http_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstdlib>
#include <stdexcept>

namespace perfbench {

namespace {

// Closes the socket on every path out of http_request.
struct Socket {
    int fd = -1;
    explicit Socket(int f) : fd(f) {}
    ~Socket()
    {
        if (fd >= 0) ::close(fd);
    }
    Socket(const Socket&) = delete;
    Socket& operator=(const Socket&) = delete;
};

class JsonParser {
public:
    explicit JsonParser(std::string_view text) : s_(text) {}

    Json document()
    {
        Json v = value();
        skip_ws();
        if (pos_ != s_.size()) fail("trailing characters");
        return v;
    }

private:
    [[noreturn]] void fail(const char* what) const
    {
        throw std::runtime_error(std::string{"malformed JSON: "} + what);
    }

    void skip_ws()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\r' || s_[pos_] == '\t'))
            ++pos_;
    }

    char peek()
    {
        skip_ws();
        if (pos_ >= s_.size()) fail("unexpected end");
        return s_[pos_];
    }

    void expect(char c)
    {
        if (peek() != c) fail("unexpected character");
        ++pos_;
    }

    bool literal(std::string_view word)
    {
        if (s_.substr(pos_, word.size()) != word) return false;
        pos_ += word.size();
        return true;
    }

    std::string string_body()
    {
        expect('"');
        std::string out;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c == '\\') {
                if (pos_ >= s_.size()) fail("bad escape");
                c = s_[pos_++];
                switch (c) {
                case 'n': c = '\n'; break;
                case 't': c = '\t'; break;
                case 'r': c = '\r'; break;
                case 'b': c = '\b'; break;
                case 'f': c = '\f'; break;
                case 'u': {
                    if (pos_ + 4 > s_.size()) fail("bad \\u escape");
                    const long code = std::strtol(std::string{s_.substr(pos_, 4)}.c_str(),
                                                  nullptr, 16);
                    pos_ += 4;
                    c = code < 0x80 ? static_cast<char>(code) : '?';
                    break;
                }
                default: break;  // \" \\ \/
                }
            }
            out += c;
        }
        if (pos_ >= s_.size()) fail("unterminated string");
        ++pos_;
        return out;
    }

    Json value()
    {
        Json v;
        const char c = peek();
        if (c == '{') {
            v.kind = Json::Kind::object;
            ++pos_;
            if (peek() == '}') {
                ++pos_;
                return v;
            }
            for (;;) {
                std::string key = string_body();
                expect(':');
                v.fields.emplace_back(std::move(key), value());
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                expect('}');
                return v;
            }
        }
        if (c == '[') {
            v.kind = Json::Kind::array;
            ++pos_;
            if (peek() == ']') {
                ++pos_;
                return v;
            }
            for (;;) {
                v.items.push_back(value());
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                expect(']');
                return v;
            }
        }
        if (c == '"') {
            v.kind = Json::Kind::string;
            v.text = string_body();
            return v;
        }
        if (literal("true")) {
            v.kind = Json::Kind::boolean;
            v.boolean = true;
            return v;
        }
        if (literal("false")) {
            v.kind = Json::Kind::boolean;
            return v;
        }
        if (literal("null")) return v;
        const std::size_t start = pos_;
        while (pos_ < s_.size() && (std::string_view{"+-.0123456789eE"}.find(s_[pos_]) !=
                                    std::string_view::npos))
            ++pos_;
        if (pos_ == start) fail("unexpected character");
        v.kind = Json::Kind::number;
        v.text = std::string{s_.substr(start, pos_ - start)};
        return v;
    }

    std::string_view s_;
    std::size_t pos_ = 0;
};

}  // namespace

const Json* Json::get(std::string_view key) const
{
    for (const auto& [k, v] : fields)
        if (k == key) return &v;
    return nullptr;
}

double Json::number() const
{
    return kind == Kind::number ? std::strtod(text.c_str(), nullptr) : 0.0;
}

Json parse_json(std::string_view text)
{
    return JsonParser{text}.document();
}

HttpReply http_request(std::uint16_t port, std::string_view method, std::string_view path,
                       std::string_view body)
{
    HttpReply reply;
    const Socket sock{::socket(AF_INET, SOCK_STREAM, 0)};
    if (sock.fd < 0) return reply;
    timeval timeout{30, 0};
    ::setsockopt(sock.fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    ::setsockopt(sock.fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(sock.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0)
        return reply;

    std::string request{method};
    request += ' ';
    request += path;
    request += " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n";
    if (!body.empty() || method == "POST") {
        request += "Content-Type: application/json\r\nContent-Length: ";
        request += std::to_string(body.size());
        request += "\r\n";
    }
    request += "\r\n";
    request += body;
    for (std::size_t sent = 0; sent < request.size();) {
        const ssize_t n = ::send(sock.fd, request.data() + sent, request.size() - sent,
                                 MSG_NOSIGNAL);
        if (n <= 0) return reply;
        sent += static_cast<std::size_t>(n);
    }

    std::string raw;
    char buf[8192];
    for (;;) {
        const ssize_t n = ::recv(sock.fd, buf, sizeof buf, 0);
        if (n < 0) return reply;
        if (n == 0) break;
        raw.append(buf, static_cast<std::size_t>(n));
    }
    // "HTTP/1.1 201 Created\r\n...headers...\r\n\r\nbody"
    const std::size_t head_end = raw.find("\r\n\r\n");
    if (raw.size() < 12 || raw.compare(0, 5, "HTTP/") != 0 || head_end == std::string::npos)
        return reply;
    reply.status = std::atoi(raw.c_str() + raw.find(' ') + 1);
    reply.body = raw.substr(head_end + 4);
    return reply;
}

}  // namespace perfbench
