#include "serve/json.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>

namespace cobra::serve {

namespace {

[[noreturn]] void
kindMismatch(const char* wanted, Json::Kind got)
{
    static const char* names[] = {"null",   "bool",  "number",
                                  "string", "array", "object"};
    throw JsonError(0, std::string("expected ") + wanted + ", have " +
                           names[static_cast<int>(got)]);
}

} // namespace

bool
Json::asBool() const
{
    if (kind_ != Kind::Bool)
        kindMismatch("bool", kind_);
    return bool_;
}

double
Json::asDouble() const
{
    if (kind_ != Kind::Number)
        kindMismatch("number", kind_);
    return num_;
}

std::int64_t
Json::asInt() const
{
    if (kind_ != Kind::Number)
        kindMismatch("number", kind_);
    if (numIsInt_)
        return int_;
    // [-2^63, 2^63) in double: casting anything outside (or a NaN) to
    // int64 is undefined behaviour, so "1e30" must stop here.
    constexpr double kTwo63 = 9223372036854775808.0;
    if (!(num_ >= -kTwo63 && num_ < kTwo63))
        throw JsonError(0, "integer out of range");
    const double r = std::nearbyint(num_);
    if (r != num_)
        throw JsonError(0, "expected an integer, have a fraction");
    return static_cast<std::int64_t>(r);
}

std::uint64_t
Json::asU64() const
{
    const std::int64_t v = asInt();
    if (v < 0)
        throw JsonError(0, "expected a non-negative integer");
    return static_cast<std::uint64_t>(v);
}

const std::string&
Json::asString() const
{
    if (kind_ != Kind::String)
        kindMismatch("string", kind_);
    return str_;
}

const std::vector<Json>&
Json::asArray() const
{
    if (kind_ != Kind::Array)
        kindMismatch("array", kind_);
    return arr_;
}

const std::map<std::string, Json>&
Json::asObject() const
{
    if (kind_ != Kind::Object)
        kindMismatch("object", kind_);
    return obj_;
}

const Json*
Json::find(const std::string& key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    auto it = obj_.find(key);
    return it == obj_.end() ? nullptr : &it->second;
}

const std::string*
firstUnknownKey(const Json& obj, std::initializer_list<const char*> known)
{
    for (const auto& member : obj.asObject()) {
        const std::string& key = member.first;
        if (std::none_of(known.begin(), known.end(),
                         [&key](const char* k) { return key == k; }))
            return &key;
    }
    return nullptr;
}

bool
Json::getBool(const std::string& key, bool dflt) const
{
    const Json* v = find(key);
    return v == nullptr ? dflt : v->asBool();
}

double
Json::getDouble(const std::string& key, double dflt) const
{
    const Json* v = find(key);
    return v == nullptr ? dflt : v->asDouble();
}

std::uint64_t
Json::getU64(const std::string& key, std::uint64_t dflt) const
{
    const Json* v = find(key);
    return v == nullptr ? dflt : v->asU64();
}

std::string
Json::getString(const std::string& key, const std::string& dflt) const
{
    const Json* v = find(key);
    return v == nullptr ? dflt : v->asString();
}

Json
Json::makeNull()
{
    return Json{};
}

Json
Json::makeBool(bool b)
{
    Json j;
    j.kind_ = Kind::Bool;
    j.bool_ = b;
    return j;
}

Json
Json::makeNumber(double d)
{
    Json j;
    j.kind_ = Kind::Number;
    j.num_ = d;
    return j;
}

Json
Json::makeString(std::string s)
{
    Json j;
    j.kind_ = Kind::String;
    j.str_ = std::move(s);
    return j;
}

/** Strict recursive-descent parser over one in-memory document. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string& text) : text_(text) {}

    Json
    parseDocument()
    {
        Json v = parseValue(0);
        skipWs();
        if (pos_ != text_.size())
            fail("trailing content after the document");
        return v;
    }

  private:
    static constexpr unsigned kMaxDepth = 64;

    [[noreturn]] void fail(const std::string& msg) const
    {
        throw JsonError(pos_, msg);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                return;
            ++pos_;
        }
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeLiteral(const char* lit)
    {
        std::size_t n = 0;
        while (lit[n] != '\0')
            ++n;
        if (text_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    Json
    parseValue(unsigned depth)
    {
        if (depth > kMaxDepth)
            fail("nesting deeper than 64 levels");
        skipWs();
        const char c = peek();
        switch (c) {
          case '{': return parseObject(depth);
          case '[': return parseArray(depth);
          case '"': {
              Json j;
              j.kind_ = Json::Kind::String;
              j.str_ = parseString();
              return j;
          }
          case 't':
              if (!consumeLiteral("true"))
                  fail("bad literal (expected 'true')");
              return Json::makeBool(true);
          case 'f':
              if (!consumeLiteral("false"))
                  fail("bad literal (expected 'false')");
              return Json::makeBool(false);
          case 'n':
              if (!consumeLiteral("null"))
                  fail("bad literal (expected 'null')");
              return Json::makeNull();
          default:
              if (c == '-' || (c >= '0' && c <= '9'))
                  return parseNumber();
              fail("unexpected character");
        }
    }

    Json
    parseObject(unsigned depth)
    {
        expect('{');
        Json j;
        j.kind_ = Json::Kind::Object;
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return j;
        }
        for (;;) {
            skipWs();
            const std::size_t keyAt = pos_;
            if (peek() != '"')
                fail("object keys must be strings");
            std::string key = parseString();
            if (j.obj_.count(key) != 0)
                throw JsonError(keyAt, "duplicate key '" + key + "'");
            skipWs();
            expect(':');
            j.obj_.emplace(std::move(key), parseValue(depth + 1));
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return j;
        }
    }

    Json
    parseArray(unsigned depth)
    {
        expect('[');
        Json j;
        j.kind_ = Json::Kind::Array;
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return j;
        }
        for (;;) {
            j.arr_.push_back(parseValue(depth + 1));
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return j;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("unescaped control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                  if (pos_ + 4 > text_.size())
                      fail("truncated \\u escape");
                  unsigned cp = 0;
                  for (int i = 0; i < 4; ++i) {
                      const char h = text_[pos_++];
                      cp <<= 4;
                      if (h >= '0' && h <= '9')
                          cp |= static_cast<unsigned>(h - '0');
                      else if (h >= 'a' && h <= 'f')
                          cp |= static_cast<unsigned>(h - 'a' + 10);
                      else if (h >= 'A' && h <= 'F')
                          cp |= static_cast<unsigned>(h - 'A' + 10);
                      else
                          fail("bad hex digit in \\u escape");
                  }
                  // UTF-8 encode the BMP code point (surrogate pairs
                  // in request documents are not supported; the
                  // request fields the daemon reads are ASCII names).
                  if (cp < 0x80) {
                      out += static_cast<char>(cp);
                  } else if (cp < 0x800) {
                      out += static_cast<char>(0xC0 | (cp >> 6));
                      out += static_cast<char>(0x80 | (cp & 0x3F));
                  } else {
                      out += static_cast<char>(0xE0 | (cp >> 12));
                      out += static_cast<char>(0x80 |
                                               ((cp >> 6) & 0x3F));
                      out += static_cast<char>(0x80 | (cp & 0x3F));
                  }
                  break;
              }
              default: fail("unknown escape");
            }
        }
    }

    Json
    parseNumber()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        const std::size_t intStart = pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        if (pos_ == intStart)
            fail("malformed number");
        // RFC 8259: no leading zeros ("01" is two tokens, not a
        // number) — accepting them would make documents that other
        // strict parsers reject.
        if (pos_ - intStart > 1 && text_[intStart] == '0')
            fail("leading zero in number");
        bool isInt = true;
        if (pos_ < text_.size() && text_[pos_] == '.') {
            isInt = false;
            ++pos_;
            while (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            isInt = false;
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            while (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        const std::string tok = text_.substr(start, pos_ - start);
        if (tok.empty() || tok == "-")
            fail("malformed number");
        Json j;
        j.kind_ = Json::Kind::Number;
        try {
            if (isInt) {
                j.int_ = std::stoll(tok);
                j.numIsInt_ = true;
                j.num_ = static_cast<double>(j.int_);
            } else {
                j.num_ = std::stod(tok);
            }
        } catch (const std::exception&) {
            throw JsonError(start, "number out of range: " + tok);
        }
        return j;
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

Json
Json::parse(const std::string& text)
{
    return JsonParser(text).parseDocument();
}

} // namespace cobra::serve
